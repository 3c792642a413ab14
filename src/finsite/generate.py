"""Seeded random instances for the experiment suite, plus greedy shrinking.

Raw uniform tables almost never satisfy associativity, so categories come
from structured grammars: random posets, free categories on small DAGs and
a library of hand-built shapes.  Every generated structure is re-validated;
generation is deterministic in the seed.

Functors, presheaves and indexed morphisms are drawn by one search,
``fincat.backtrack``: one slot per non-identity arrow (per base object for
an indexed morphism), its candidates shuffled each time the search enters
it, and each condition (a composition-table entry, a naturality square)
checked once, when the last slot it reads is assigned.  A draw takes the
first complete assignment.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .fincat import (
    Adjunction,
    FinCategory,
    FinFunctor,
    StructureError,
    backtrack,
    build_category,
    compose_functors,
    constant_functor,
    entries_by_last_arrow,
    free_category,
    full_subcategory,
    identity_functor,
    poset_category,
    terminal_category,
    validate_adjunction,
    validate_functor,
)
from .fibration import IndexedCategory, IndexedMorphism, validate_indexed, validate_indexed_morphism
from .presheaf import Presheaf, validate_presheaf
from .sieves import Topology, induced_image_topology, saturate
from . import corpus


@dataclass(frozen=True)
class Caps:
    """Size caps for generated instances; part of every report's identity."""

    base_objects: int = 4
    base_arrows: int = 12
    fiber_objects: int = 4
    value_size: int = 3
    instances: int = 500
    lattice_limit: int = 64
    enumeration_limit: int = 4000
    sheaf_budget: int = 30000

    def render(self) -> str:
        fields = sorted(self.__dataclass_fields__)
        return ";".join("{}={}".format(k, getattr(self, k)) for k in fields)

    @classmethod
    def parse(cls, text: str) -> "Caps":
        kwargs = {}
        if text:
            for chunk in text.replace(",", ";").split(";"):
                if not chunk.strip():
                    continue
                k, _, v = chunk.partition("=")
                k = k.strip()
                if k not in cls.__dataclass_fields__:
                    raise ValueError("unknown cap {!r}".format(k))
                kwargs[k] = int(v)
                if kwargs[k] < 1:
                    raise ValueError("cap {} must be at least 1, not {}".format(k, kwargs[k]))
        return cls(**kwargs)


class GenerationError(RuntimeError):
    """Caps too small to admit any instance of the requested kind."""


def derive_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7_919 + 12_345) % (2**62)


# ---------------------------------------------------------------------------
# Categories


def gen_poset(rng: random.Random, max_objects: int) -> FinCategory:
    n = rng.randint(1, max_objects)
    objs = ["p{}".format(i) for i in range(n)]
    leq = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                leq.append((objs[i], objs[j]))
    return poset_category(objs, leq)


def gen_free(rng: random.Random, max_objects: int, max_arrows: int):
    """Free category on a random small DAG; returns (category, edge dict)."""
    for _ in range(20):
        n = rng.randint(1, max_objects)
        objs = ["f{}".format(i) for i in range(n)]
        edges = {}
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges["e{}".format(k)] = (objs[i], objs[j])
                    k += 1
        try:
            cat = free_category(objs, edges, path_cap=max_arrows)
            return cat, edges
        except StructureError:
            continue
    cat = free_category(["f0"], {})
    return cat, {}


_LIBRARY = (corpus.one, corpus.walk2, corpus.retract, corpus.iso2, corpus.chain3)


def gen_library(rng: random.Random) -> FinCategory:
    return rng.choice(_LIBRARY)()


def gen_category(rng: random.Random, caps: Caps):
    """Returns (category, edges): a random poset, the free category on the
    DAG ``edges``, or a library shape; edges is None unless free."""
    roll = rng.random()
    if roll < 0.45:
        return gen_poset(rng, caps.base_objects), None
    if roll < 0.85:
        return gen_free(rng, min(caps.base_objects, 3), caps.base_arrows)
    return gen_library(rng), None


# ---------------------------------------------------------------------------
# Topologies and sites


def random_family(rng: random.Random, cat: FinCategory, c: str) -> list[str]:
    """At most two arrows into ``c``: a size, then a sample of that size of
    the sorted arrows into ``c``."""
    into = sorted(cat.into(c))
    return rng.sample(into, rng.randint(0, min(2, len(into))))


def gen_topology(rng: random.Random, cat: FinCategory) -> Topology:
    generators = {}
    for c in cat.objects:
        if rng.random() < 0.55:
            generators[c] = [random_family(rng, cat, c)]
    return saturate(cat, generators)


def gen_site(rng: random.Random, caps: Caps) -> tuple[FinCategory, Topology]:
    cat = gen_category(rng, caps)[0]
    return cat, gen_topology(rng, cat)


# ---------------------------------------------------------------------------
# Functors


def _functors(src: FinCategory, tgt: FinCategory, obj_map, order=None):
    """Every functor src -> tgt with object map ``obj_map``: one slot per
    non-identity arrow of src, over the tgt arrows between the images of its
    ends in hom order, or rearranged in place by ``order`` (a shuffle) each
    time the search enters the slot."""
    non_id = [a for a in src.arrows if not src.is_identity(a)]
    homs = [tgt.hom(obj_map[src.src[f]], obj_map[src.tgt[f]]) for f in non_id]
    ids = {src.identity[c]: tgt.identity[obj_map[c]] for c in src.objects}
    place = {f: i for i, f in enumerate(non_id)}

    def preserved(g, f, h):
        fixed, g, f, h = ids.get(h), place[g], place[f], place.get(h)
        return lambda a: tgt.table[a[g], a[f]] == (fixed if h is None else a[h])

    checks = [[preserved(*e) for e in entries] for entries in entries_by_last_arrow(src, non_id)]

    def choices(i):
        cands = list(homs[i])
        if order is not None:
            order(cands)
        return cands

    for image in backtrack(choices, checks):
        yield FinFunctor(src, tgt, dict(obj_map), {**ids, **dict(zip(non_id, image))})


def all_functors(src: FinCategory, tgt: FinCategory, limit: int = 2000) -> list[FinFunctor]:
    """The first ``limit`` functors src -> tgt, object maps in product order
    (small inputs only)."""
    found = (
        fn
        for objs in itertools.product(tgt.objects, repeat=len(src.objects))
        for fn in _functors(src, tgt, dict(zip(src.objects, objs)))
    )
    return list(itertools.islice(found, limit))


def gen_functor(rng: random.Random, src: FinCategory, tgt: FinCategory) -> FinFunctor:
    """One random functor: up to 30 random object maps, each searched with
    its hom-sets shuffled; GenerationError when none extends."""
    objects = list(tgt.objects)
    for _ in range(30):
        obj_map = {c: rng.choice(objects) for c in src.objects}
        fn = next(_functors(src, tgt, obj_map, rng.shuffle), None)
        if fn is not None:
            return validate_functor(fn.obj_map, fn.arr_map, src, tgt)
    raise GenerationError("no functor found within caps")


# ---------------------------------------------------------------------------
# Indexed categories


def representable_indexed(base: FinCategory, obj: str) -> IndexedCategory:
    """Discrete fibers hom(c, obj); the total category is the slice over obj."""
    fibers = {c: corpus.discrete(base.hom(c, obj)) for c in base.objects}
    restriction = {}
    for f in base.arrows:
        s, t = base.src[f], base.tgt[f]
        restriction[f] = _poset_functor({u: base.compose(u, f) for u in base.hom(t, obj)}, fibers[t], fibers[s])
    return validate_indexed(base, fibers, restriction)


def coslice_indexed(base: FinCategory) -> IndexedCategory:
    """fiber(c) = the coslice under c; restriction is precomposition."""
    fibers = {}
    datas = {}
    for c in base.objects:
        objs = {"[{}]".format(u): u for u in base.out_of(c)}
        arrows = {}
        compose = {}
        arr_data = {}
        for o1, u in objs.items():
            for o2, v in objs.items():
                for w in base.hom(base.tgt[u], base.tgt[v]):
                    if base.compose(w, u) == v:
                        if base.is_identity(w) and o1 == o2:
                            continue
                        name = "{}@{}->{}".format(w, o1, o2)
                        arrows[name] = (o1, o2)
                        arr_data[name] = w
        full = dict(arrows)
        for (b, (bs, bt)) in list(arrows.items()):
            for (a, (asrc, at)) in list(arrows.items()):
                if at == bs:
                    w = base.compose(arr_data[b], arr_data[a])
                    if base.is_identity(w):
                        compose[(b, a)] = "id_" + asrc
                    else:
                        compose[(b, a)] = "{}@{}->{}".format(w, asrc, bt)
        fibers[c] = build_category(tuple(sorted(objs)), full, compose)
        datas[c] = (objs, arr_data)
    restriction = {}
    for f in base.arrows:
        s, t = base.src[f], base.tgt[f]
        objs_t, arr_t = datas[t]
        obj_map = {}
        for o, u in objs_t.items():
            obj_map[o] = "[{}]".format(base.compose(u, f))
        arr_map = {}
        for a in fibers[t].arrows:
            if fibers[t].is_identity(a):
                arr_map[a] = fibers[s].identity[obj_map[fibers[t].src[a]]]
                continue
            arr_map[a] = "{}@{}->{}".format(arr_t[a], obj_map[fibers[t].src[a]], obj_map[fibers[t].tgt[a]])
        restriction[f] = validate_functor(obj_map, arr_map, fibers[t], fibers[s])
    return validate_indexed(base, fibers, restriction)


def gen_small_category(rng: random.Random, max_objects: int) -> FinCategory:
    roll = rng.random()
    if roll < 0.5:
        return corpus.discrete(["x{}".format(i) for i in range(rng.randint(1, max_objects))])
    if roll < 0.85:
        return gen_poset(rng, max_objects)
    return corpus.walk2() if rng.random() < 0.5 else corpus.one()


def gen_indexed(rng: random.Random, base: FinCategory, caps: Caps, edges=None) -> IndexedCategory:
    """Recipes: constant fibers, representable (slice), coslice, or, on a
    base free on the generating ``edges``, arbitrary restrictions along them."""
    roll = rng.random()
    if edges is not None and roll < 0.45:
        fibers = {c: gen_small_category(rng, min(caps.fiber_objects, 3)) for c in base.objects}
        try:
            edge_restriction = {e: gen_functor(rng, fibers[t], fibers[s]) for e, (s, t) in edges.items()}
        except GenerationError:
            pass
        else:
            restriction = {}
            for a in base.arrows:
                if base.is_identity(a):
                    continue
                # the path "ek*...*e1" applies e1 first, so its restriction
                # applies ek's first: r(e1) after ... after r(ek)
                fn = identity_functor(fibers[base.tgt[a]])
                for e in a.split("*"):
                    fn = compose_functors(edge_restriction[e], fn)
                restriction[a] = fn
            return validate_indexed(base, fibers, restriction)
    if roll < 0.6:
        obj = rng.choice(list(base.objects))
        return representable_indexed(base, obj)
    if roll < 0.8 and sum(len(base.out_of(c)) for c in base.objects) <= 4 * len(base.objects):
        return coslice_indexed(base)
    return constant_indexed(base, gen_small_category(rng, caps.fiber_objects))


def gen_fibration(rng: random.Random, caps: Caps) -> tuple[IndexedCategory, Topology]:
    """A random indexed category over a random site; a free base's edges
    reach the indexed category's recipe.  Draws as ``gen_site`` then
    ``gen_indexed`` do."""
    cat, edges = gen_category(rng, caps)
    topology = gen_topology(rng, cat)
    return gen_indexed(rng, cat, caps, edges), topology


def constant_indexed(base: FinCategory, fiber: FinCategory) -> IndexedCategory:
    """The indexed category with ``fiber`` over every object and identity restrictions."""
    return validate_indexed(
        base,
        {c: fiber for c in base.objects},
        {f: identity_functor(fiber) for f in base.arrows if not base.is_identity(f)},
    )


def collapse_morphism(cix: IndexedCategory) -> IndexedMorphism:
    """The indexed morphism out of ``cix`` onto the terminal fiber everywhere."""
    one_fib = terminal_category()
    target = constant_indexed(cix.base, one_fib)
    comps = {c: constant_functor(cix.fiber[c], one_fib, "*") for c in cix.base.objects}
    return validate_indexed_morphism(cix, target, comps)


def gen_indexed_morphism(rng: random.Random, cix: IndexedCategory, caps: Caps) -> IndexedMorphism:
    """A strict indexed morphism out of cix: identity, a collapse to the
    terminal fiber, or a searched morphism into a fresh indexed category."""
    base = cix.base
    roll = rng.random()
    if roll < 0.25:
        comps = {c: identity_functor(cix.fiber[c]) for c in base.objects}
        return validate_indexed_morphism(cix, cix, comps)
    if roll < 0.6:
        return collapse_morphism(cix)
    target = gen_indexed(rng, base, caps)
    objs = list(base.objects)
    options = [all_functors(cix.fiber[c], target.fiber[c], limit=200) for c in objs]
    if not objs or not all(options):
        return collapse_morphism(cix)
    place = {c: i for i, c in enumerate(objs)}
    checks: list[list] = [[] for _ in objs]
    for f in base.arrows:
        # restrictions along identities are identities, so their squares commute
        if not base.is_identity(f):
            s, t = place[base.src[f]], place[base.tgt[f]]
            down, up = cix.restriction[f], target.restriction[f]
            checks[max(s, t)].append(
                lambda a, s=s, t=t, down=down, up=up: compose_functors(a[s], down) == compose_functors(up, a[t])
            )

    def choices(i):
        cands = list(options[i])
        rng.shuffle(cands)
        return cands

    found = next(backtrack(choices, checks), None)
    if found is None:
        return collapse_morphism(cix)
    return validate_indexed_morphism(cix, target, dict(zip(objs, found)))


# ---------------------------------------------------------------------------
# Cartesian (finite-limit) fibers


def chain(n: int, tag: str) -> FinCategory:
    """The chain poset on ``tag``0 < ``tag``1 < ... of ``n`` objects, listed bottom-to-top."""
    assert n <= 10, "single-digit ranks keep lexicographic order = chain order"
    objs = ["{}{}".format(tag, i) for i in range(n)]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def chain_map(rng: random.Random, src_size: int, tgt_size: int, src: FinCategory, tgt: FinCategory) -> FinFunctor:
    """A random monotone top-preserving map of chains (preserves all finite limits).

    Chain objects are assumed listed bottom-to-top, as ``chain`` builds them.
    """
    src_objs, tgt_objs = list(src.objects), list(tgt.objects)
    picks = sorted(rng.randint(0, tgt_size - 1) for _ in range(src_size))
    picks[-1] = tgt_size - 1
    return _poset_functor({src_objs[i]: tgt_objs[picks[i]] for i in range(src_size)}, src, tgt)


def graded_chain_indexed(rng: random.Random, chain_base: FinCategory, max_fiber: int) -> IndexedCategory:
    """Over a chain base: chain fibers with one top-preserving step map per
    consecutive level; longer restrictions are the forced composites."""
    n = len(chain_base.objects)
    objs = list(chain_base.objects)
    sizes = [rng.randint(1, max_fiber) for _ in range(n)]
    fibers = {objs[i]: chain(sizes[i], "v") for i in range(n)}
    steps = []
    for i in range(n - 1):
        steps.append(chain_map(rng, sizes[i + 1], sizes[i], fibers[objs[i + 1]], fibers[objs[i]]))
    restriction = {}
    for a in chain_base.arrows:
        if chain_base.is_identity(a):
            continue
        i = objs.index(chain_base.src[a])
        j = objs.index(chain_base.tgt[a])
        fn = identity_functor(fibers[objs[j]])
        for k in range(j - 1, i - 1, -1):
            fn = compose_functors(steps[k], fn)
        restriction[a] = fn
    return validate_indexed(chain_base, fibers, restriction)


# ---------------------------------------------------------------------------
# Galois connections (adjoint pairs between posets)


def _poset_leq(cat: FinCategory, x: str, y: str) -> bool:
    return x == y or bool(cat.hom(x, y))


def _poset_functor(obj_map, src: FinCategory, tgt: FinCategory) -> FinFunctor:
    """The functor between thin categories with object map ``obj_map``."""
    arr_map = {a: tgt.hom(obj_map[src.src[a]], obj_map[src.tgt[a]])[0] for a in src.arrows}
    return validate_functor(obj_map, arr_map, src, tgt)


def _galois_attempt(rng: random.Random, p: FinCategory, q: FinCategory) -> Adjunction | None:
    """One try at a Galois connection from p to q: a random monotone lower
    adjoint L, kept if each R(b) = max {x : L x <= b} exists, with unit and
    counit read off the orders.  That maximum makes L -| R with R monotone:
    L x <= b gives x <= R b; x <= R b gives L x <= L R b <= b; and a <= b
    puts R a in {x : L x <= b}, so R a <= R b."""
    obj_map = {x: rng.choice(list(q.objects)) for x in p.objects}
    if not all(
        _poset_leq(q, obj_map[x], obj_map[y])
        for x in p.objects
        for y in p.objects
        if _poset_leq(p, x, y)
    ):
        return None
    right_map = {}
    for qo in q.objects:
        below = [x for x in p.objects if _poset_leq(q, obj_map[x], qo)]
        top = [x for x in below if all(_poset_leq(p, y, x) for y in below)]
        if len(top) != 1:
            return None
        right_map[qo] = top[0]
    left = _poset_functor(obj_map, p, q)
    right = _poset_functor(right_map, q, p)
    unit = {x: p.hom(x, right_map[obj_map[x]])[0] for x in p.objects}
    counit = {qo: q.hom(obj_map[right_map[qo]], qo)[0] for qo in q.objects}
    return validate_adjunction(left, right, unit, counit)


def gen_galois(rng: random.Random, caps: Caps, target: FinCategory | None = None) -> Adjunction:
    """A verified Galois connection from a random poset to a random poset, or
    to ``target`` when it is given, in at most 40 attempts."""
    for _ in range(40):
        p = gen_poset(rng, caps.base_objects)
        q = gen_poset(rng, caps.base_objects) if target is None else target
        adj = _galois_attempt(rng, p, q)
        if adj is not None:
            return adj
    raise GenerationError("no Galois connection within caps")


# ---------------------------------------------------------------------------
# Dense inclusions and comorphisms


def gen_dense_pair(rng: random.Random, caps: Caps):
    """A full subcategory inclusion made dense by construction: image-sourced
    families are forced to cover, and the subcategory carries the induced
    topology.  Returns (inclusion, source topology, target topology).
    """
    for _ in range(20):
        cat = gen_category(rng, caps)[0]
        k = rng.randint(1, len(cat.objects))
        objs = sorted(rng.sample(sorted(cat.objects), k))
        sub = full_subcategory(cat, objs)
        generators = {}
        for c in cat.objects:
            fams = []
            if rng.random() < 0.4:
                fams.append(random_family(rng, cat, c))
            if c not in objs:
                fams.append([m for m in cat.into(c) if cat.src[m] in set(objs)])
            if fams:
                generators[c] = fams
        topology = saturate(cat, generators)
        inclusion = validate_functor(
            {c: c for c in sub.objects}, {a: a for a in sub.arrows}, sub, cat
        )
        try:
            induced = induced_image_topology(inclusion, topology)
        except StructureError:
            continue
        return inclusion, induced, topology
    raise GenerationError("no dense pair within caps")


def min_comorphism_topology(functor: FinFunctor, target_topology: Topology) -> Topology:
    """Smallest topology on the source making the functor a comorphism:
    generated by the preimage sieve of the least target cover of each image
    object (the preimages of the other covers contain it)."""
    src = functor.source
    generators = {}
    for d in src.objects:
        least = target_topology.least[functor.ob(d)]
        generators[d] = [[h for h in src.into(d) if functor.ar(h) in least]]
    return saturate(src, generators)


def pushforward_topology(functor: FinFunctor, source_topology: Topology, rng: random.Random | None = None) -> Topology:
    """A target topology making the functor cover-preserving: saturate the
    image of each least source cover (the images of the other covers generate
    larger sieves), plus optional random extra families."""
    tgt = functor.target
    generators: dict[str, list] = {c: [] for c in tgt.objects}
    for c in functor.source.objects:
        generators[functor.ob(c)].append([functor.ar(f) for f in sorted(source_topology.least[c])])
    if rng is not None:
        for c in tgt.objects:
            if rng.random() < 0.3:
                generators[c].append(random_family(rng, tgt, c))
    return saturate(tgt, generators)


# ---------------------------------------------------------------------------
# Presheaves


def gen_presheaf(rng: random.Random, cat: FinCategory, max_size: int) -> Presheaf:
    """A random presheaf: up to 50 random size draws, each searched one
    non-identity arrow at a time over at most 60 of its shuffled actions;
    the empty presheaf when none completes."""
    non_id = [f for f in cat.arrows if not cat.is_identity(f)]
    place = {f: i for i, f in enumerate(non_id)}

    def functorial(g, f, h):
        g, f, h = place[g], place[f], place.get(h)
        if h is None:
            return lambda acts: all(acts[f][b] == a for a, b in acts[g].items())
        return lambda acts: all(acts[f][b] == acts[h][a] for a, b in acts[g].items())

    checks = [[functorial(*e) for e in entries] for entries in entries_by_last_arrow(cat, non_id)]
    for _ in range(50):
        values = {c: tuple(str(i) for i in range(rng.randint(0, max_size))) for c in cat.objects}

        def choices(i):
            f = non_id[i]
            dom, cod = values[cat.tgt[f]], values[cat.src[f]]
            images = list(itertools.product(cod, repeat=len(dom)))
            rng.shuffle(images)
            return (dict(zip(dom, image)) for image in images[:60])

        found = next(backtrack(choices, checks), None)
        if found is not None:
            return validate_presheaf(cat, values, dict(zip(non_id, found)))
    return validate_presheaf(cat, {c: () for c in cat.objects}, {f: {} for f in non_id})


# ---------------------------------------------------------------------------
# Instance bundles (the generate_instance surface)


KINDS = ("site", "fibration", "site-functor", "dense-pair")


def generate_instance(kind: str, seed: int, caps: Caps) -> dict:
    """A valid instance of the requested kind, deterministic in the seed.

    Validity is re-checked by the constructors; recipes rejection-sample.
    """
    rng = random.Random(seed)
    if kind == "site":
        cat, topology = gen_site(rng, caps)
        return {"category": cat, "topology": topology}
    if kind == "fibration":
        cix, topology = gen_fibration(rng, caps)
        return {"indexed": cix, "base_topology": topology}
    if kind == "site-functor":
        for _ in range(30):
            src, src_top = gen_site(rng, caps)
            tgt, tgt_top = gen_site(rng, caps)
            try:
                fn = gen_functor(rng, src, tgt)
            except GenerationError:
                continue
            return {"functor": fn, "source_topology": src_top, "target_topology": tgt_top}
        raise GenerationError("no functor found within caps")
    if kind == "dense-pair":
        inclusion, induced, topology = gen_dense_pair(rng, caps)
        return {"functor": inclusion, "source_topology": induced, "target_topology": topology}
    raise ValueError("unknown instance kind {!r}".format(kind))


# ---------------------------------------------------------------------------
# Shrinking


def _shrink(current, reductions, still_fails):
    """Greedy shrinking: take the first of ``reductions(current)`` that is
    not None and still fails, and restart from it, until none does."""
    while True:
        for cand in reductions(current):
            if cand is not None and still_fails(*cand):
                current = cand
                break
        else:
            return current


def _restrict_site(cat: FinCategory, top: Topology, drop: str):
    """The full subcategory without ``drop``, each least cover cut to its
    arrows and re-saturated; None if nothing is left or it is not valid."""
    objs = [o for o in cat.objects if o != drop]
    if not objs:
        return None
    try:
        sub = full_subcategory(cat, objs)
        keep = set(sub.arrows)
        return sub, saturate(sub, {c: [sorted(top.least[c] & keep)] for c in sub.objects})
    except StructureError:
        return None


def shrink_site(category: FinCategory, topology: Topology, still_fails) -> tuple[FinCategory, Topology]:
    """Greedy object deletion preserving failure; each least cover is
    restricted to the surviving arrows and re-saturated."""

    def reductions(pair):
        return (_restrict_site(*pair, drop) for drop in sorted(pair[0].objects))

    return _shrink((category, topology), reductions, still_fails)


def _restrict_base(cix: IndexedCategory, top: Topology, drop: str):
    site = _restrict_site(cix.base, top, drop)
    if site is None:
        return None
    sub, sub_top = site
    restriction = {f: cix.restriction[f] for f in sub.arrows if not sub.is_identity(f)}
    try:
        return validate_indexed(sub, {c: cix.fiber[c] for c in sub.objects}, restriction), sub_top
    except StructureError:
        return None


def _restrict_fiber(cix: IndexedCategory, top: Topology, c: str, drop: str):
    objs = [o for o in cix.fiber[c].objects if o != drop]
    if not objs:
        return None
    try:
        fibers = {**cix.fiber, c: full_subcategory(cix.fiber[c], objs)}
        restriction = {}
        for f in cix.base.arrows:
            if not cix.base.is_identity(f):
                fn, src_fib, tgt_fib = cix.restriction[f], fibers[cix.base.tgt[f]], fibers[cix.base.src[f]]
                obj_map = {x: fn.ob(x) for x in src_fib.objects}
                restriction[f] = validate_functor(obj_map, {a: fn.ar(a) for a in src_fib.arrows}, src_fib, tgt_fib)
        return validate_indexed(cix.base, fibers, restriction), top
    except StructureError:
        # as when a restriction functor maps an object onto the deleted one
        return None


def shrink_fibration(cix: IndexedCategory, topology: Topology, still_fails):
    """Greedy base-object deletion, then fiber-object deletion, preserving
    failure; a base deletion restricts the topology as ``shrink_site`` does."""

    def reductions(pair):
        cix, top = pair
        for drop in sorted(cix.base.objects):
            yield _restrict_base(cix, top, drop)
        for c in sorted(cix.base.objects):
            for drop in sorted(cix.fiber[c].objects):
                yield _restrict_fiber(cix, top, c, drop)

    return _shrink((cix, topology), reductions, still_fails)

