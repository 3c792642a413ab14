"""Named, replayable experiments over the corpus and seeded fuzzing.

An experiment is data, an ``ExperimentSpec``: a check, an instance recipe and
its corpus cases.  One driver, ``run_experiment``, checks the corpus cases,
then the fuzz instances the recipe draws.  Identical (id, seed, caps) triples
yield byte-identical canonical reports; wall time is kept off the canonical
text.  Each experiment knows which in-scope results it covers, and the
release runner refuses to proceed when the union misses one.
"""
from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Iterable
# Failure, Report, ExperimentSpec and generate.Caps stay dataclasses, unlike
# the ``fincat.Record`` records: callers derive variants of them with
# ``dataclasses.replace``, and they load only with this engine, never on the
# set-up or bundle-command paths, so ``dataclasses`` costs those nothing.
from dataclasses import dataclass, replace

from . import corpus
from .bundles import category_to_json, dumps_canonical, topology_to_json
from .deciders import (
    Prop33Square,
    SiteFunctor,
    check_prop33_conditions,
    is_comorphism,
    is_continuous,
    is_dense_morphism,
    is_morphism_of_sites,
)
from .fincat import (
    StructureError,
    arrow_category,
    comma_category,
    compose_functors,
    connected_components,
    constant_functor,
    identity_functor,
    identity_transform,
    interning,
    is_equivalence,
    terminal_category,
    validate_functor,
)
from .fibration import (
    direct_image,
    compose_direct_images,
    compose_inverse_images,
    giraud_topology,
    grothendieck,
    is_cartesian_fibration,
    is_fibration,
    is_morphism_of_fibrations,
    q_reflects_cartesian,
    structure_functor,
    total_functor,
)
from .generate import (
    Caps,
    GenerationError,
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
    gen_presheaf,
    gen_site,
    gen_topology,
    generate_instance,
    graded_chain_indexed,
    min_comorphism_topology,
    pushforward_topology,
    representable_indexed,
    shrink_fibration,
    _chain,
    _chain_map,
    _rng,
)
from . import limits
from .presheaf import (
    is_sheaf,
    precompose,
    sheaf_targets,
    sheafify,
    unit_universal_property,
    validate_presheaf,
)
from .sieves import (
    CapExceeded,
    induced_image_topology,
    InducedTopologyError,
    is_topology,
    saturate,
    topology_candidate_count,
    topology_leq,
    trivial_topology,
)


class SkipInstance(Exception):
    """Raised by a check when the instance exceeds an exhaustive-search cap."""


# Why an instance was skipped: make() raised GenerationError or CapExceeded,
# or check() raised SkipInstance.
SKIP_REASONS = ("GenerationError", "CapExceeded", "SkipInstance")
# Errors by which a shrunk candidate is rejected during minimisation.
_SHRINK_REJECTS = (StructureError, GenerationError, CapExceeded, SkipInstance)
# A check returns None (pass), a failure message, or NOTED: a pass that the
# run also counts in ``_Run.noted``, for corpus and fuzz instances only.
NOTED = object()


def _failed(outcome) -> bool:
    return outcome is not None and outcome is not NOTED


@dataclass(frozen=True)
class Failure:
    label: str
    message: str
    instance: str
    minimized: str


@dataclass(frozen=True)
class Report:
    experiment: str
    seed: int
    caps: Caps
    checked: int
    skipped: int
    notes: tuple[str, ...]
    failures: tuple[Failure, ...]
    elapsed: float
    # (reason, count) for each of SKIP_REASONS, summing to skipped; like
    # elapsed, not part of the canonical report.
    skips: tuple[tuple[str, int], ...]

    def canonical_text(self) -> str:
        lines = [
            "experiment {}".format(self.experiment),
            "seed {}".format(self.seed),
            "caps {}".format(self.caps.render()),
            "checked {}".format(self.checked),
            "skipped {}".format(self.skipped),
            "failures {}".format(len(self.failures)),
        ]
        for note in self.notes:
            lines.append("note {}".format(note))
        fail_block = []
        for i, f in enumerate(self.failures):
            fail_block.append("failure {} {}".format(i, f.label))
            fail_block.append("  message {}".format(f.message))
            fail_block.append("  instance {}".format(f.instance))
            fail_block.append("  minimized {}".format(f.minimized))
        lines.extend(fail_block)
        digest = hashlib.sha256("\n".join(fail_block).encode("utf-8")).hexdigest() if fail_block else "-"
        lines.append("--- trailer ---")
        lines.append("id={}".format(self.experiment))
        lines.append("seed={}".format(self.seed))
        lines.append("caps={}".format(self.caps.render()))
        lines.append("checked={}".format(self.checked))
        lines.append("skipped={}".format(self.skipped))
        lines.append("failures={}".format(len(self.failures)))
        lines.append("digest={}".format(digest))
        return "\n".join(lines) + "\n"

    @property
    def ok(self) -> bool:
        return not self.failures


class _Run:
    """Accumulates per-instance outcomes for one experiment run."""

    def __init__(self, seed: int, caps: Caps):
        self.seed = seed
        self.caps = caps
        self.checked = 0
        self.skips = dict.fromkeys(SKIP_REASONS, 0)
        self.notes: list[str] = []
        self.noted = 0
        self.failures: list[Failure] = []

    def check(self, label: str, instance_desc: str, outcome, minimized: str = ""):
        """outcome is None (pass), NOTED (a counted pass) or a failure message."""
        self.checked += 1
        if outcome is NOTED:
            self.noted += 1
        elif outcome is not None:
            self.failures.append(Failure(label, str(outcome), instance_desc, minimized or instance_desc))

    def fixed(self, cases, check):
        """Check each corpus (label, instance) pair; a failure is described by its label."""
        for label, inst in cases:
            try:
                outcome = check(inst)
            except SkipInstance:
                self.skips["SkipInstance"] += 1
                continue
            self.check(label, label, outcome)

    @property
    def skipped(self) -> int:
        return sum(self.skips.values())

    def loop(self, make, check):
        """make(instance seed) -> instance dict or raises; check(instance) ->
        None | NOTED | message.  A failure is named ``seed <n>``, the
        instance seed n from which ``make`` rebuilds it."""
        for i in range(self.caps.instances):
            n = derive_seed(self.seed, i)
            try:
                inst = make(n)
            except GenerationError:
                self.skips["GenerationError"] += 1
                continue
            except CapExceeded:
                self.skips["CapExceeded"] += 1
                continue
            try:
                msg = check(inst)
            except SkipInstance:
                self.skips["SkipInstance"] += 1
                continue
            minimized = self._minimize(inst, check) if _failed(msg) else ""
            self.check("fuzz[{}]".format(i), "seed {}".format(n), msg, minimized)

    @staticmethod
    def _minimize(inst, check) -> str:
        """The canonical document of a failing bare fibration over a site
        (def-2.2, topology-soundness, def-2.5), shrunk while it keeps
        failing; "" for any other instance, which only its seed rebuilds
        whole."""
        if inst.keys() != {"indexed", "base_topology"}:
            return ""

        def fails(cix, top):
            try:
                return _failed(check({"indexed": cix, "base_topology": top}))
            except _SHRINK_REJECTS:
                # a reduction that breaks dependent instance parts does not
                # count as a preserved failure; any other error surfaces
                return False

        cix, top = shrink_fibration(inst["indexed"], inst["base_topology"], fails)
        return dumps_canonical(
            {
                "base": category_to_json(cix.base),
                "fibers": {c: category_to_json(cix.fiber[c]) for c in sorted(cix.base.objects)},
                "topology": topology_to_json(top, "base"),
            }
        )


# ---------------------------------------------------------------------------
# Checks, instance recipes and corpus cases
#
# A check takes (instance, caps) and returns None, NOTED or a failure message,
# or raises SkipInstance.  A recipe takes (instance seed, caps) and returns an
# instance dict, or raises GenerationError or CapExceeded.  Both look up the
# kernel functions in this module's globals when they run, so that a wrapper
# set on one of those names (a tracer, a test's monkeypatch) sees every call.


def _capped(caps: Caps, base: int, fiber: int | None = None) -> Caps:
    """``caps`` with base_objects at most ``base``, and fiber_objects at most ``fiber`` if given."""
    fiber_objects = caps.fiber_objects if fiber is None else min(fiber, caps.fiber_objects)
    return replace(caps, base_objects=min(base, caps.base_objects), fiber_objects=fiber_objects)


def _fibration(seed, caps):
    return generate_instance("fibration", seed, caps)


def _comma_kernel(inst, caps):
    cat = inst["category"]
    ac = arrow_category(cat)
    ident = identity_functor(cat)
    cc = comma_category(ident, ident)
    obj_map = {}
    for name, (_, _, u) in cc.obj_data.items():
        obj_map[name] = ac.of_arrow[u]
    if sorted(obj_map.values()) != sorted(ac.category.objects):
        return "comma(Id,Id) object set differs from the arrow category"
    arr_map = {}
    for name, (w1, w2) in cc.arr_data.items():
        o1, o2 = cc.category.src[name], cc.category.tgt[name]
        arr_map[name] = "[{},{}]:{}->{}".format(w1, w2, obj_map[o1], obj_map[o2])
    try:
        iso = validate_functor(obj_map, arr_map, cc.category, ac.category)
    except StructureError as err:
        return "comma-to-arrow comparison is not a functor: {}".format(err)
    if sorted(arr_map.values()) != sorted(ac.category.arrows):
        return "comma(Id,Id) arrows differ from the arrow category"
    if compose_functors(ac.dom, iso) != cc.left:
        return "left projection disagrees with the domain functor"
    if compose_functors(ac.cod, iso) != cc.right:
        return "right projection disagrees with the codomain functor"
    neighbours = {c: set() for c in cat.objects}
    for a in cat.arrows:
        neighbours[cat.src[a]].add(cat.tgt[a])
        neighbours[cat.tgt[a]].add(cat.src[a])
    seen = set()
    groups = []
    for c in cat.objects:
        if c in seen:
            continue
        stack, group = [c], set()
        while stack:
            x = stack.pop()
            if x in group:
                continue
            group.add(x)
            stack.extend(neighbours[x] - group)
        seen |= group
        groups.append(tuple(sorted(group)))
    if tuple(sorted(groups)) != tuple(sorted(connected_components(cat))):
        return "connected components disagree with graph reachability"
    return None


def _cartesian_characterisation(inst, caps):
    cix = inst["indexed"]
    bundle = grothendieck(cix)
    ok, witness = is_fibration(bundle)
    if not ok:
        return "grothendieck output missed a strict lift: {}".format(witness)
    for name, (u, f) in bundle.arr_pair.items():
        c1 = bundle.obj_pair[bundle.total.src[name]][1]
        vertical_iso = cix.fiber[c1].is_iso(u)
        if vertical_iso != (name in bundle.cartesian):
            return "cartesian table disagrees with the vertical-iso characterisation at {}".format(name)
    return None


def _topology_soundness(inst, caps):
    cix = inst["indexed"]
    topology = inst["base_topology"]
    base = topology.base
    ok, witness = is_topology(base, topology.covers)
    if not ok:
        return "saturate output fails {}".format(witness)
    again = saturate(base, {c: [topology.least[c]] for c in base.objects})
    if again != topology:
        return "saturate is not idempotent"
    gir = giraud_topology(cix, topology)
    ok, witness = is_topology(gir.base, gir.covers)
    if not ok:
        return "giraud output fails {}".format(witness)
    ident = identity_functor(base)
    if induced_image_topology(ident, topology) != topology:
        return "induced topology along the identity is not the identity"
    return None


def _topology_soundness_cases():
    for name, cat, top in corpus.corpus_sites():
        cix = corpus.two_point(cat) if cat == corpus.walk2() else constant_indexed(cat, terminal_category())
        yield name, {"indexed": cix, "base_topology": top}


def _minimality(inst, caps):
    cix = inst["indexed"]
    topology = inst["base_topology"]
    bundle = grothendieck(cix)
    if topology_candidate_count(bundle.total) > caps.enumeration_limit:
        raise SkipInstance()
    gir = giraud_topology(cix, topology)
    # A comorphism asks p(S_K(e)) <= S_J(p e) at each e, which only gets
    # easier as K grows, so the comorphism topologies K are exactly the
    # up-set of the least one; Def. 2.5 says that least one is Giraud's.
    least = min_comorphism_topology(bundle.projection, topology)
    if gir != least:
        differ = next(e for e in bundle.total.objects if gir.least[e] != least.least[e])
        return "the Giraud topology is not the least comorphism topology at {}".format(differ)
    v = is_comorphism(SiteFunctor(bundle.projection, gir, topology))
    if not v.ok:
        return "giraud projection is not a comorphism: {}".format(v.witness)
    return None


def _continuity(inst, caps):
    morphism = inst["morphism"]
    cix = morphism.source
    topology = inst["base_topology"]
    bundle = grothendieck(cix)
    gir = giraud_topology(cix, topology)
    site = SiteFunctor(bundle.projection, gir, topology)
    v = is_comorphism(site)
    if not v.ok:
        return "giraud projection is not a comorphism: {}".format(v.witness)
    v = is_continuous(site)
    if not v.ok:
        return "giraud projection is not continuous: {}".format(v.witness)
    top_fun = total_functor(morphism)
    ok, witness = is_morphism_of_fibrations(top_fun, identity_functor(cix.base), bundle, grothendieck(morphism.target))
    if not ok:
        return "indexed morphism is not a morphism of fibrations: {}".format(witness)
    gir_tgt = giraud_topology(morphism.target, topology)
    v = is_continuous(SiteFunctor(top_fun, gir, gir_tgt))
    if not v.ok:
        return "morphism of fibrations is not continuous between Giraud sites: {}".format(v.witness)
    return None


def _morphism_over_site(rng, caps) -> dict:
    """A generated indexed morphism over a generated base site."""
    cix, topology = gen_fibration(rng, caps)
    return {"morphism": gen_indexed_morphism(rng, cix, caps), "base_topology": topology}


def _twopoint_collapse() -> dict:
    return {"morphism": collapse_morphism(corpus.two_point()), "base_topology": corpus.sier()}


def _reflect_cartesian(inst, caps):
    di = direct_image(inst["indexed"], inst["functor"])
    ok, witness = q_reflects_cartesian(di)
    if not ok:
        return "projection fails to reflect cartesian arrows: {}".format(witness)
    ok, witness = is_morphism_of_fibrations(di.q, inst["functor"], di.source, di.target)
    if not ok:
        return "projection is not a morphism of fibrations: {}".format(witness)
    for c in di.indexed.base.objects:
        if di.indexed.fiber[c] != inst["indexed"].fiber[inst["functor"].ob(c)]:
            return "pullback fiber table is not exact at {}".format(c)
    return None


def _make_reflect_cartesian(seed, caps):
    rng = _rng(seed)
    dix, _ = gen_fibration(rng, caps)
    src, _ = gen_site(rng, _capped(caps, 3))
    return {"indexed": dix, "functor": gen_functor(rng, src, dix.base)}


def _adjoint_agreement(inst, caps):
    adj = inst["adjunction"]
    cix = inst["indexed"]
    stf = structure_functor(cix, adj)
    inv = stf.inverse
    if not inv.adjunction_ok:
        return "comparison adjunction failed the triangle identities"
    if stf.composite != inv.comparison:
        return "structure functor disagrees with the adjoint comparison"
    one = terminal_category()
    dcat = adj.left.source
    for d in dcat.objects:
        comma = comma_category(constant_functor(one, dcat, d), adj.right)
        cat = comma.category
        initial = [
            o for o in cat.objects if all(len(cat.hom(o, other)) == 1 for other in cat.objects)
        ]
        if not initial:
            return "comma category (d over right adjoint) has no initial object at {}".format(d)
        target_obj = None
        for name, (_, c, u) in comma.obj_data.items():
            if c == adj.left.ob(d) and u == adj.unit[d]:
                target_obj = name
                break
        if target_obj is None:
            return "unit object missing from the comma category at {}".format(d)
        arrows = cat.hom(initial[0], target_obj)
        if len(arrows) != 1:
            return "initial object not strict at {}".format(d)
        w = comma.arr_data[arrows[0]][1]
        comparison = cix.restriction[w]
        ok, witness = is_equivalence(comparison)
        if not ok:
            return "pointwise comma-colimit disagrees with the adjoint inverse image at {}: {}".format(d, witness[0])
    return None


def _galois_over(rng, caps) -> dict:
    """A generated Galois connection, with an indexed category over its left adjoint's target."""
    adj = gen_galois(rng, caps)
    return {"adjunction": adj, "indexed": gen_indexed(rng, adj.left.target, caps)}


def _walk2_terminal() -> dict:
    """The corpus adjunction bang -| pick b, with a two-object discrete fiber over its point."""
    adj = corpus.walk2_terminal_adjunction()
    return {"adjunction": adj, "indexed": constant_indexed(corpus.one(), corpus.discrete(("p", "q")))}


def _transfer(decide, inst, lost: str, unmet: str | None = None):
    """Props. 3.4, 4.2 and 4.6: when ``inst["site_functor"]`` has the property
    that ``decide`` decides (continuity, comorphism, density), so does the
    projection q of the direct image of ``inst["indexed"]`` along it, between
    the two Giraud sites.  ``lost`` formats q's witness.  A site functor
    without the property skips the instance, unless ``unmet`` is given: the
    recipe then built it to have the property, and ``unmet`` formats its
    witness."""
    sf, cix = inst["site_functor"], inst["indexed"]
    pre = decide(sf)
    if not pre.ok:
        if unmet is None:
            raise SkipInstance()
        return unmet.format(pre.witness)
    di = direct_image(cix, sf.functor)
    q = SiteFunctor(di.q, giraud_topology(di.indexed, sf.source_topology), giraud_topology(cix, sf.target_topology))
    v = decide(q)
    if not v.ok:
        return lost.format(v.witness)
    return None


def _over_site_functor(draw):
    """The recipe of a transfer check: a site functor ``draw(rng, seed,
    caps)``, then an indexed category over its target from the same stream."""

    def make(seed, caps):
        rng = _rng(seed)
        caps = _capped(caps, 3, 2)
        sf = draw(rng, seed, caps)
        return {"site_functor": sf, "indexed": gen_indexed(rng, sf.functor.target, caps)}

    return make


def _continuous_site_functor(rng, seed, caps):
    """A site functor that is continuous by construction (identity, or a
    trivially-topologised source)."""
    roll = rng.random()
    if roll < 0.3:
        cat, topology = gen_site(rng, caps)
        return SiteFunctor(identity_functor(cat), topology, topology)
    src, _ = gen_site(rng, caps)
    tgt, tgt_top = gen_site(rng, caps)
    return SiteFunctor(gen_functor(rng, src, tgt), trivial_topology(src), tgt_top)


def _comorphism_site_functor(rng, seed, caps):
    tgt, tgt_top = gen_site(rng, caps)
    src, _ = gen_site(rng, caps)
    fn = gen_functor(rng, src, tgt)
    return SiteFunctor(fn, min_comorphism_topology(fn, tgt_top), tgt_top)


def _dense_site_functor(rng, seed, caps):
    """A dense inclusion, drawn from its own copy of the seed's stream: ``rng``
    is left untouched."""
    inst = generate_instance("dense-pair", seed, caps)
    return SiteFunctor(inst["functor"], inst["source_topology"], inst["target_topology"])


def _walk2_identity(label):
    """The identity of Walk2 with the Sierpinski topology on both sides, over two_point."""
    w = corpus.walk2()
    sf = SiteFunctor(identity_functor(w), corpus.sier(w), corpus.sier(w))
    return [(label, {"site_functor": sf, "indexed": corpus.two_point(w)})]


def _prop44(inst, caps):
    if inst["flavor"] == "direct":
        if not compose_direct_images(inst["indexed"], inst["inner"], inst["outer"]):
            return "direct-image composition is not table-exact"
        return None
    if not compose_inverse_images(inst["indexed"], inst["adj_inner"], inst["adj_outer"]):
        return "inverse-image comparison composite is not the composite's comparison"
    return None


def _make_prop44(seed, caps):
    rng = _rng(seed)
    caps = _capped(caps, 3)
    if rng.random() < 0.5:
        dix, _ = gen_fibration(rng, caps)
        mid, _ = gen_site(rng, caps)
        outer = gen_functor(rng, mid, dix.base)
        src, _ = gen_site(rng, caps)
        return {"flavor": "direct", "indexed": dix, "inner": gen_functor(rng, src, mid), "outer": outer}
    adj_inner = gen_galois(rng, caps)
    adj_outer = gen_galois_into(rng, caps, adj_inner.left.source)
    base = adj_inner.left.target
    if rng.random() < 0.5:
        cix = gen_indexed(rng, base, caps)
    else:
        cix = representable_indexed(base, rng.choice(list(base.objects)))
    return {"flavor": "adjoint", "indexed": cix, "adj_inner": adj_inner, "adj_outer": adj_outer}


def _prop44_cases():
    w = corpus.walk2()
    inst = {
        "flavor": "direct",
        "indexed": corpus.two_point(w),
        "inner": identity_functor(corpus.one()),
        "outer": corpus.pick(w, "b"),
    }
    return [("walk2-pick-id", inst)]


def _sheafify(inst, caps):
    p = inst["presheaf"]
    topology = inst["topology"]
    # sheafify raises StructureError unless its output is a sheaf
    sh = sheafify(p, topology)
    again = sheafify(sh.sheaf, topology)
    for c in p.base.objects:
        comp = again.unit[c]
        if sorted(comp.values()) != sorted(set(comp.values())) or len(set(comp.values())) != len(sh.sheaf.values[c]):
            return "sheafifying a sheaf did not give an isomorphic unit at {}".format(c)
    if inst.get("expect_singleton"):
        if any(len(sh.sheaf.values[c]) != 1 for c in p.base.objects):
            return "worked example did not collapse to the constant singleton sheaf"
    try:
        targets = list(sheaf_targets(p.base, topology, caps.value_size, caps.sheaf_budget))
    except CapExceeded:
        return None
    for q in targets:
        ok, witness = unit_universal_property(p, sh, q)
        if not ok:
            return "unit universal property fails: {}".format(witness)
    return NOTED


def _make_sheafify(seed, caps):
    rng = _rng(seed)
    cat, topology = gen_site(rng, _capped(caps, 2))
    p = gen_presheaf(rng, cat, caps.value_size)
    return {"presheaf": p, "topology": topology}


def _sheafify_cases():
    w = corpus.walk2()
    worked = validate_presheaf(w, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}})
    return [("walk2-worked", {"presheaf": worked, "topology": corpus.sier(w), "expect_singleton": True})]


def _unpreserved_sheaf(functor, source_topology, targets):
    """``is_sheaf``'s witness for the first of ``targets`` whose restriction
    along ``functor`` is not a sheaf, or None.  A restriction reads a target
    only on F's image, so targets that agree there are checked once."""
    # an identity's action lists its value set, so the key holds the values too
    image = [(functor.ar(f), functor.ob(functor.source.tgt[f])) for f in functor.source.arrows]
    seen = set()
    for q in targets:
        key = tuple([tuple([q.action[g][a] for a in q.values[c]]) for g, c in image])
        if key not in seen:
            seen.add(key)
            ok, witness = is_sheaf(precompose(q, functor), source_topology)
            if not ok:
                return witness
    return None


def _cross_check(inst, caps):
    sf = SiteFunctor(inst["functor"], inst["source_topology"], inst["target_topology"])
    v = is_continuous(sf)
    if not v.ok:
        return None
    try:
        targets = list(sheaf_targets(sf.functor.target, sf.target_topology, caps.value_size, caps.sheaf_budget))
    except CapExceeded:
        raise SkipInstance()
    witness = _unpreserved_sheaf(sf.functor, sf.source_topology, targets)
    if witness is not None:
        return "continuous functor failed to preserve a sheaf: {}".format(witness)
    return NOTED


def _cross_check_cases():
    w = corpus.walk2()
    one = trivial_topology(corpus.one())
    return [("walk2-bang", {"functor": corpus.bang(w), "source_topology": corpus.sier(w), "target_topology": one})]


def _prop24(inst, caps):
    dense_sf = inst["dense"]
    f_prime = inst["functor"]
    direct = is_continuous(SiteFunctor(f_prime, inst["source_topology"], dense_sf.source_topology))
    composed = is_continuous(
        SiteFunctor(compose_functors(dense_sf.functor, f_prime), inst["source_topology"], dense_sf.target_topology)
    )
    if direct.ok != composed.ok:
        return "continuity through a dense morphism disagrees: direct={} composed={}".format(direct.ok, composed.ok)
    return None


def _make_prop24(seed, caps):
    rng = _rng(seed)
    caps = _capped(caps, 3)
    dense_sf = _dense_site_functor(rng, seed, caps)
    src, src_top = gen_site(rng, caps)
    return {"dense": dense_sf, "functor": gen_functor(rng, src, dense_sf.functor.source), "source_topology": src_top}


def _prop33(inst, caps):
    morphism, topology = inst["morphism"], inst["base_topology"]
    a_fun = total_functor(morphism)
    tgt_proj = grothendieck(morphism.target).projection
    gir_tgt = giraud_topology(morphism.target, topology)
    phi = identity_transform(compose_functors(tgt_proj, a_fun))
    src_proj = grothendieck(morphism.source).projection
    v = check_prop33_conditions(Prop33Square(a_fun, identity_functor(topology.base), phi, tgt_proj, src_proj, gir_tgt))
    if not v.ok:
        return "comparison conditions fail: {}".format(v.witness)
    return None


def _prop29(inst, caps):
    dix = inst["indexed"]
    fn = inst["functor"]
    ok, witness = is_cartesian_fibration(dix)
    if not ok:
        return "cartesian input is not a cartesian fibration: {}".format(witness)
    di = direct_image(dix, fn)
    ok, witness = is_cartesian_fibration(di.indexed)
    if not ok:
        return "direct image lost the cartesian structure: {}".format(witness)
    ok, witness = limits.reflects_limits_jointly(di.q, di.source.projection)
    if not ok:
        return "projection failed to reflect a limit cone: {}".format(witness)
    return None


def _make_prop29(seed, caps):
    # Reflection needs the stated hypotheses: bases with finite limits and
    # a limit-preserving base functor.  Chains supply both cheaply.
    rng = _rng(seed)
    caps = _capped(caps, 3, 3)
    tgt_size = rng.randint(1, caps.base_objects)
    src_size = rng.randint(1, caps.base_objects)
    tgt = _chain(tgt_size, "d")
    src = _chain(src_size, "c")
    fn = _chain_map(rng, src_size, tgt_size, src, tgt)
    dix = graded_chain_indexed(rng, tgt, caps.fiber_objects)
    return {"indexed": dix, "functor": fn}


def _prop29_cases():
    one = corpus.one()
    cix = constant_indexed(one, corpus.discrete(("t",)))
    return [("one-point", {"indexed": cix, "functor": identity_functor(one)})]


def _prop412(inst, caps):
    morphism = inst["morphism"]
    topology = inst["base_topology"]
    a_fun = total_functor(morphism)
    gir_src = giraud_topology(morphism.source, topology)
    gir_tgt = giraud_topology(morphism.target, topology)
    enlarged = inst["extra"]
    target_topology = gir_tgt if enlarged is None else enlarged
    if not topology_leq(gir_tgt, target_topology):
        return "constructed target topology does not contain the Giraud topology"
    try:
        induced = induced_image_topology(a_fun, target_topology)
    except InducedTopologyError:
        raise SkipInstance()
    if not topology_leq(gir_src, induced):
        return "induced topology does not contain the Giraud topology"
    return None


def _make_prop412(seed, caps):
    rng = _rng(seed)
    inst = {**_morphism_over_site(rng, _capped(caps, 3, 2)), "extra": None}
    if rng.random() < 0.4:
        tgt_bundle = grothendieck(inst["morphism"].target)
        gir_tgt = giraud_topology(inst["morphism"].target, inst["base_topology"])
        gens = {c: [sorted(gir_tgt.least[c])] for c in tgt_bundle.total.objects}
        for c in tgt_bundle.total.objects:
            if rng.random() < 0.4:
                into = sorted(tgt_bundle.total.into(c))
                gens[c].append(rng.sample(into, rng.randint(0, min(2, len(into)))))
        inst["extra"] = saturate(tgt_bundle.total, gens)
    return inst


def _structure(inst, caps):
    adj = inst["adjunction"]
    cix = inst["indexed"]
    base_topology = inst["base_topology"]
    target_topology = inst["target_topology"]
    stf = structure_functor(cix, adj)
    if stf.composite != stf.inverse.comparison:
        return "structure functor is not the unit-then-projection composite"
    pre = is_morphism_of_sites(SiteFunctor(adj.right, base_topology, target_topology))
    if not pre.ok:
        return "right adjoint is not a morphism of sites under the pushforward topology: {}".format(pre.witness)
    gir_src = giraud_topology(cix, base_topology)
    gir_tgt = giraud_topology(stf.inverse.indexed, target_topology)
    v = is_morphism_of_sites(SiteFunctor(stf.composite, gir_src, gir_tgt))
    if not v.ok:
        return "structure functor is not a morphism of sites: {}".format(v.witness)
    return None


def _make_structure(seed, caps):
    rng = _rng(seed)
    inst = _galois_over(rng, _capped(caps, 3, 2))
    adj = inst["adjunction"]
    inst["base_topology"] = gen_topology(rng, adj.left.target)
    inst["target_topology"] = pushforward_topology(adj.right, inst["base_topology"], rng)
    return inst


def _structure_cases():
    inst = _walk2_terminal()
    j = trivial_topology(corpus.one())
    inst.update(base_topology=j, target_topology=pushforward_topology(inst["adjunction"].right, j))
    return [("walk2-terminal", inst)]


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment as data: ``run_experiment`` checks each of ``fixed()``'s
    (label, instance) corpus cases, then ``caps.instances`` fuzz instances
    ``make(instance seed, caps)``, each by ``check(instance, caps)``; with a
    ``note``, the report carries the count of NOTED passes under that name."""

    check: Callable[[dict, Caps], object]
    make: Callable[[int, Caps], dict]
    fixed: Callable[[], Iterable[tuple[str, dict]]]
    description: str
    tags: tuple[str, ...]
    note: str | None = None


IN_SCOPE_TAGS = (
    "sec-2.1-comma",
    "def-2.2",
    "def-2.3",
    "def-2.4",
    "def-2.5",
    "def-2.6",
    "def-2.7",
    "comorphism-condition",
    "def-2.9-prop-2.2",
    "prop-2.4",
    "def-2.10",
    "prop-2.5",
    "prop-2.7",
    "def-2.12",
    "prop-2.9",
    "prop-3.3-iii",
    "prop-3.4",
    "prop-4.2",
    "prop-4.4",
    "prop-4.6",
    "remark-4.1b",
    "sec-4.3-structure",
    "prop-4.11",
    "prop-4.12-containment",
)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "comma-kernel": ExperimentSpec(
        _comma_kernel,
        lambda seed, caps: {"category": gen_category(_rng(seed), caps)[0]},
        lambda: [(name, {"category": cat}) for name, cat, _ in corpus.corpus_sites()],
        "comma categories vs the arrow-category and graph-reachability oracles",
        ("sec-2.1-comma",),
    ),
    "def-2.2-cartesian": ExperimentSpec(
        _cartesian_characterisation,
        _fibration,
        lambda: [("twopoint", {"indexed": corpus.two_point()})],
        "grothendieck outputs are fibrations; cartesian arrows are the vertical isos",
        ("def-2.2",),
    ),
    "topology-soundness": ExperimentSpec(
        _topology_soundness,
        _fibration,
        _topology_soundness_cases,
        "saturate/giraud/induced outputs satisfy the axioms; saturation idempotent",
        ("def-2.5", "prop-4.11"),
    ),
    "def-2.5-minimality": ExperimentSpec(
        _minimality,
        lambda seed, caps: generate_instance("fibration", seed, _capped(caps, 3, 2)),
        lambda: [("twopoint-sier", {"indexed": corpus.two_point(), "base_topology": corpus.sier()})],
        "comorphism topologies on the total category are exactly the up-set of the Giraud topology",
        ("def-2.5", "def-2.6", "def-2.7", "comorphism-condition"),
    ),
    "thm-2.3-continuity": ExperimentSpec(
        _continuity,
        lambda seed, caps: _morphism_over_site(_rng(seed), _capped(caps, 3, 3)),
        lambda: [("twopoint", _twopoint_collapse())],
        "giraud projections are continuous comorphisms; fibration morphisms are continuous",
        ("def-2.3", "def-2.4", "def-2.9-prop-2.2", "def-2.5"),
    ),
    "prop-2.5-reflect": ExperimentSpec(
        _reflect_cartesian,
        _make_reflect_cartesian,
        lambda: [("twopoint-pick-b", {"indexed": corpus.two_point(), "functor": corpus.pick(corpus.walk2(), "b")})],
        "pullback projections reflect cartesian arrows and are morphisms of fibrations",
        ("prop-2.5", "def-2.10"),
    ),
    "prop-2.7-agreement": ExperimentSpec(
        _adjoint_agreement,
        lambda seed, caps: _galois_over(_rng(seed), caps),
        lambda: [("walk2-terminal", _walk2_terminal())],
        "adjoint-route inverse images agree with the pointwise comma-colimit oracle",
        ("prop-2.7", "remark-4.1b"),
    ),
    "prop-3.4-continuous": ExperimentSpec(
        lambda inst, caps: _transfer(
            is_continuous, inst, "direct-image projection of a continuous functor is not continuous: {}"
        ),
        _over_site_functor(_continuous_site_functor),
        lambda: _walk2_identity("walk2-id"),
        "direct-image projections of continuous functors are continuous between Giraud sites",
        ("prop-3.4",),
    ),
    "prop-4.2-comorphism": ExperimentSpec(
        lambda inst, caps: _transfer(
            is_comorphism,
            inst,
            "direct-image projection of a comorphism is not a comorphism: {}",
            "constructed comorphism fails its own check: {}",
        ),
        _over_site_functor(_comorphism_site_functor),
        lambda: _walk2_identity("walk2-id"),
        "direct-image projections of comorphisms are comorphisms between Giraud sites",
        ("prop-4.2",),
    ),
    "prop-4.6-dense": ExperimentSpec(
        lambda inst, caps: _transfer(
            is_dense_morphism,
            inst,
            "direct-image projection along a dense morphism is not dense: {}",
            "constructed dense inclusion fails the dense check: {}",
        ),
        _over_site_functor(_dense_site_functor),
        lambda: _walk2_identity("walk2-full"),
        "direct-image projections along dense morphisms are dense between Giraud sites",
        ("prop-4.6",),
    ),
    "prop-4.4-compose": ExperimentSpec(
        _prop44,
        _make_prop44,
        _prop44_cases,
        "base-change comparisons compose on the nose: direct images and adjoint comparisons",
        ("prop-4.4",),
    ),
    "sheafify-soundness": ExperimentSpec(
        _sheafify,
        _make_sheafify,
        _sheafify_cases,
        "double plus yields sheaves, is idempotent, and satisfies the unit universal property",
        (),
        "universal-property-instances",
    ),
    "continuity-cross-check": ExperimentSpec(
        _cross_check,
        lambda seed, caps: generate_instance("site-functor", seed, _capped(caps, 3)),
        _cross_check_cases,
        "continuity implies precomposition preserves all bounded sheaves, one check per distinct restriction",
        ("def-2.9-prop-2.2",),
        "continuous-instances",
    ),
    "prop-2.4-triangle": ExperimentSpec(
        _prop24,
        _make_prop24,
        lambda: (),
        "continuity through a dense morphism of sites is equivalent to continuity",
        ("prop-2.4",),
    ),
    "prop-3.3-conditions": ExperimentSpec(
        _prop33,
        lambda seed, caps: _morphism_over_site(_rng(seed), _capped(caps, 2, 2)),
        lambda: [("twopoint-collapse", _twopoint_collapse())],
        "fixed-base morphisms of fibrations satisfy both comparison conditions",
        ("prop-3.3-iii",),
    ),
    "prop-2.9-cartesian": ExperimentSpec(
        _prop29,
        _make_prop29,
        _prop29_cases,
        "direct images preserve cartesian fibrations and projections reflect limit cones",
        ("def-2.12", "prop-2.9"),
    ),
    "prop-4.12-containment": ExperimentSpec(
        _prop412,
        _make_prop412,
        lambda: [("twopoint-collapse", {**_twopoint_collapse(), "extra": None})],
        "induced topologies along fibration morphisms contain the Giraud topology",
        ("prop-4.12-containment", "prop-4.11"),
    ),
    "structure-functor-sites": ExperimentSpec(
        _structure,
        _make_structure,
        _structure_cases,
        "the unit-then-projection structure functor is a morphism of sites",
        ("sec-4.3-structure",),
    ),
}


EXPERIMENT_ALIASES = {
    "def-2.2": "def-2.2-cartesian",
    "thm-2.3": "thm-2.3-continuity",
    "prop-2.4": "prop-2.4-triangle",
    "prop-2.5": "prop-2.5-reflect",
    "prop-2.7": "prop-2.7-agreement",
    "prop-2.9": "prop-2.9-cartesian",
    "prop-3.3": "prop-3.3-conditions",
    "prop-3.4": "prop-3.4-continuous",
    "prop-4.2": "prop-4.2-comorphism",
    "prop-4.4": "prop-4.4-compose",
    "prop-4.6": "prop-4.6-dense",
    "prop-4.12": "prop-4.12-containment",
}


def resolve_experiment_id(experiment_id: str) -> str:
    return EXPERIMENT_ALIASES.get(experiment_id, experiment_id)


def coverage_gaps() -> tuple[str, ...]:
    covered = set()
    for entry in EXPERIMENTS.values():
        covered.update(entry.tags)
    return tuple(tag for tag in IN_SCOPE_TAGS if tag not in covered)


def all_experiment_ids() -> tuple[str, ...]:
    return tuple(sorted(EXPERIMENTS))


def run_experiment(experiment_id: str, seed: int = 0, caps: Caps | None = None) -> Report:
    experiment_id = resolve_experiment_id(experiment_id)
    if experiment_id not in EXPERIMENTS:
        raise KeyError("unknown experiment id {!r}".format(experiment_id))
    caps = caps or Caps()
    spec = EXPERIMENTS[experiment_id]
    run = _Run(seed, caps)
    start = time.perf_counter()
    with interning():

        def check(inst):
            return spec.check(inst, caps)

        run.fixed(spec.fixed(), check)
        run.loop(lambda n: spec.make(n, caps), check)
    if spec.note is not None:
        run.notes.append("{} {}".format(spec.note, run.noted))
    elapsed = time.perf_counter() - start
    return Report(
        experiment_id,
        seed,
        caps,
        run.checked,
        run.skipped,
        tuple(run.notes),
        tuple(run.failures),
        elapsed,
        tuple(run.skips.items()),
    )
