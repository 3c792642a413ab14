"""Validated finite categories and the constructions every other module reuses.

Everything is exact table arithmetic: a category is its composition table,
a functor is a pair of finite maps, and every axiom is checked by exhaustive
enumeration at construction time.  Objects and arrows are opaque string
identifiers; equality is identifier equality, and the one "up to iso"
question, ``is_equivalence``, is answered by explicit search.

Inside an ``interning()`` scope (one per experiment report) ``poset_category``
and ``build_category`` return the category already built from the same
presentation, so each distinct presentation is validated in full once per
report and one category may be shared by several of the report's instances.
Because of that sharing a category's ``_scratch`` holds only data derived
from the category itself: its sieve lattices and its finite-limit search.

The records of this and the other modules (categories, functors,
topologies, presheaves, verdicts, ...) derive from ``Record``: each names its
fields once, in ``_fields``, is built from them in that order, is immutable,
and is compared and printed field by field, so ``==`` compares two functors.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from operator import attrgetter

DEFAULT_MAX_OBJECTS = 64
DEFAULT_MAX_ARROWS = 512


class StructureError(ValueError):
    """A finite structure broke one of its defining axioms.

    ``witness`` carries the offending pair/triple so failures replay.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def raise_stray_key(given, known, message: str) -> None:
    """Raise StructureError for the first key of ``given``, in sorted order,
    that ``known`` lacks.  Validators call it when ``given`` holds every key
    of ``known`` and is larger, so one comparison of sizes finds a stray key."""
    stray = min(k for k in given if k not in known)
    raise StructureError(message.format(stray), witness=stray)


class Record:
    """An immutable record of the fields its class names in ``_fields``.

    A subclass that defines no ``__init__`` gets one taking its fields in
    order, generated once per class as ``namedtuple`` generates its
    ``__new__``; a subclass that does more than set its fields writes its own
    and sets them with ``object.__setattr__``.  Two records are equal when
    they are of the same class and their fields are equal; a record hashes
    its fields, so one holding a dict cannot be hashed; it prints as
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # one getter of the fields per class; every record has at least two
        # fields, so it returns a tuple
        cls._values = attrgetter(*cls._fields)
        if "__init__" in vars(cls):
            return
        # generated once per class: a loop over the fields makes every
        # construction slower, and filling the instance dictionary in one
        # update also makes every later attribute read slower
        names = cls._fields
        body = "".join("\n    _set(self, {!r}, {})".format(name, name) for name in names)
        namespace = {"_set": object.__setattr__}
        exec("def __init__(self, {}):{}".format(", ".join(names), body), namespace)
        cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join("{}={!r}".format(name, getattr(self, name)) for name in self._fields)
        return "{}({})".format(type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field {!r}".format(name))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field {!r}".format(name))


class FinCategory(Record):
    """An explicit finite category.

    ``table[(g, f)]`` is the composite "g after f"; it is defined exactly on
    the composable pairs.  Instances are immutable and hashable, so derived
    data may be memoised against them in ``_scratch``, which two functions
    fill: ``sieves.sieve_lattice`` (``"sieve_lattice"``, per object) and
    ``limits.finite_limits`` (``"finite_limits"``; its cones are read-only).
    Nothing else may go there: inside an ``interning()`` scope one instance
    serves every caller that builds the same presentation, so the instances
    of a report may share it.  The constructor only indexes the tables by
    endpoint; ``validate_category`` checks them.  Equality and hashing
    compare the sorted tables, which are built on the first ``__hash__`` or
    non-identical ``__eq__``, not on construction.
    """

    _fields = ("objects", "arrows", "src", "tgt", "identity", "table")

    def __init__(
        self,
        objects: tuple[str, ...],
        arrows: tuple[str, ...],
        src: dict[str, str],
        tgt: dict[str, str],
        identity: dict[str, str],
        table: dict[tuple[str, str], str],
    ):
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "table", table)
        into = {c: [] for c in objects}
        out = {c: [] for c in objects}
        hom: dict[tuple[str, str], list[str]] = {}
        for a in arrows:
            into[tgt[a]].append(a)
            out[src[a]].append(a)
            hom.setdefault((src[a], tgt[a]), []).append(a)
        object.__setattr__(self, "_into", {c: tuple(v) for c, v in into.items()})
        object.__setattr__(self, "_out", {c: tuple(v) for c, v in out.items()})
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "_ids", frozenset(identity.values()))
        object.__setattr__(self, "_scratch", {})

    @cached_property
    def _key(self):
        return (
            self.objects,
            self.arrows,
            tuple(sorted(self.src.items())),
            tuple(sorted(self.tgt.items())),
            tuple(sorted(self.identity.items())),
            tuple(sorted(self.table.items())),
        )

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinCategory) and self._key == other._key)

    def __repr__(self):
        return "FinCategory({} objects, {} arrows)".format(len(self.objects), len(self.arrows))

    def compose(self, g: str, f: str) -> str:
        return self.table[(g, f)]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def into(self, c: str) -> tuple[str, ...]:
        return self._into[c]

    def out_of(self, c: str) -> tuple[str, ...]:
        return self._out[c]

    def is_identity(self, a: str) -> bool:
        return a in self._ids

    def is_iso(self, a: str) -> bool:
        """Whether some arrow back is a two-sided inverse of ``a``."""
        x, y = self.src[a], self.tgt[a]
        return any(
            self.compose(b, a) == self.identity[x] and self.compose(a, b) == self.identity[y] for b in self.hom(y, x)
        )


def validate_category(objects, arrows, identity, table) -> FinCategory:
    """Validate raw tables and return the FinCategory they present.

    ``arrows`` maps arrow name -> (source, target).  Fails on the first
    violated axiom, naming the witnessing pair or triple, and on more than
    ``DEFAULT_MAX_OBJECTS`` objects or ``DEFAULT_MAX_ARROWS`` arrows.  An
    ``identity`` entry for anything but an object is dropped.

    Each table entry is checked once, in table order; only when one fails
    are the entries rescanned in sorted order, so the witness is the first
    bad entry in that order.  Associativity is checked only where the
    earlier checks leave it open: a triple with an identity in it holds by
    the unit laws, and when every hom-set has at most one arrow both sides
    are the one arrow between the same endpoints.  No skipped triple can
    fail, so the first witness is the one the full scan would find.
    """
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
    identity = {c: identity[c] for c in objects}
    table = dict(table)
    for (g, f), h in table.items():
        if not (g in src and f in src and h in src and src[g] == tgt[f] and src[h] == src[f] and tgt[h] == tgt[g]):
            _raise_first_bad_entry(table, src, tgt)
    cat = FinCategory(objects, names, src, tgt, identity, table)
    # Every key is now a composable pair, so the table misses one exactly
    # when it has fewer entries than there are composable pairs.
    if len(table) != sum(len(cat._into[c]) * len(cat._out[c]) for c in objects):
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


def _raise_first_bad_entry(table, src, tgt):
    """Raise for the first table entry, in sorted order, whose factors or
    composite are unknown arrows or whose endpoints disagree."""
    for (g, f), h in sorted(table.items()):
        if g not in src or f not in src:
            raise StructureError("composite of unknown arrows ({}, {})".format(g, f), witness=(g, f))
        if src[g] != tgt[f]:
            raise StructureError("non-composable pair ({}, {})".format(g, f), witness=(g, f))
        if h not in src:
            raise StructureError("composite ({}, {}) lands outside the arrow set".format(g, f), witness=(g, f))
        if src[h] != src[f] or tgt[h] != tgt[g]:
            raise StructureError("composite of ({}, {}) has wrong endpoints".format(g, f), witness=(g, f))


def composable_pairs(arrows) -> list[tuple[str, str]]:
    """Every (b, a) with a's target b's source, for ``arrows`` mapping a name
    to (source, target): b in the order of ``arrows``, and for each b, a in
    that order too, as a scan over all pairs would list them."""
    into: dict[str, list[str]] = {}
    for a, (_, t) in arrows.items():
        into.setdefault(t, []).append(a)
    return [(b, a) for b, (s, _) in arrows.items() for a in into.get(s, ())]


# The categories built so far in the innermost ``interning()`` scope, keyed
# on their presentation; None outside every scope.
_interned: dict | None = None


@contextmanager
def interning():
    """A scope in which ``poset_category`` and ``build_category`` return the
    category already built from the same presentation, in the same input
    order, so that it is validated once (hash-consing: Filliatre and Conchon,
    "Type-safe modular hash-consing", 2006).  A nested scope shares the outer
    table; the outermost one empties it on exit.  A failing presentation is
    never stored, so it raises again with the same witness."""
    global _interned
    if _interned is not None:
        yield
        return
    _interned = {}
    try:
        yield
    finally:
        _interned = None


def _interned_build(key, build) -> FinCategory:
    cat = _interned.get(key)
    if cat is None:
        cat = _interned[key] = build()
    return cat


def build_category(objects, arrows, compose=()) -> FinCategory:
    """Ergonomic constructor: identities are named id_<obj> and unit composites filled in.

    ``arrows`` maps non-identity arrow names to (src, tgt); ``compose`` lists
    the non-identity composites as a mapping (g, f) -> h.
    """
    arrows = dict(arrows)
    if _interned is None:
        return _build_category(objects, arrows, compose)
    compose = dict(compose)
    key = ("build", tuple(objects), tuple((a, tuple(e)) for a, e in arrows.items()), tuple(compose.items()))
    return _interned_build(key, lambda: _build_category(objects, arrows, compose))


def _build_category(objects, arrows, compose) -> FinCategory:
    identity = {c: "id_" + c for c in objects}
    full = dict(arrows)
    for c, i in identity.items():
        if i in arrows:
            raise StructureError("arrow name {} collides with an identity".format(i))
        full[i] = (c, c)
    table = dict(compose)
    for a, (s, t) in full.items():
        table[(a, identity[s])] = a
        table[(identity[t], a)] = a
    return validate_category(objects, full, identity, table)


def terminal_category() -> FinCategory:
    return build_category(("*",), {})


def poset_category(objects, leq) -> FinCategory:
    """The category of a finite poset. ``leq`` is any set of (x, y) pairs; its
    reflexive-transitive closure is taken, and antisymmetry is enforced."""
    objects = tuple(objects)
    if _interned is None:
        return _poset_category(objects, leq)
    leq = tuple(tuple(p) for p in leq)
    return _interned_build(("poset", objects, leq), lambda: _poset_category(objects, leq))


def _poset_category(objects, leq) -> FinCategory:
    rel = {(x, x) for x in objects} | {tuple(p) for p in leq}
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    for x, y in rel:
        if x != y and (y, x) in rel:
            raise StructureError("not antisymmetric: {} and {}".format(x, y), witness=(x, y))
    arrows = {}
    for x, y in sorted(rel):
        if x != y:
            arrows["{}->{}".format(x, y)] = (x, y)
    compose = {}
    for g, (gy, gz) in arrows.items():
        for f, (fx, fy) in arrows.items():
            if fy == gy:
                compose[(g, f)] = "{}->{}".format(fx, gz)
    return _build_category(objects, arrows, compose)


def free_category(objects, edges, path_cap: int = 64) -> FinCategory:
    """The free category on a finite acyclic graph: arrows are edge paths.

    A path applying e1 then e2 is named "e2*e1". Raises if the graph has a
    cycle or generates more than ``path_cap`` paths.
    """
    edges = dict(edges)
    paths = {e: (e,) for e in edges}
    ends = {e: edges[e] for e in edges}
    frontier = list(edges)
    arrows = dict(ends)
    while frontier:
        nxt = []
        for p in frontier:
            for e, (s, t) in edges.items():
                if s == ends[p][1]:
                    name = e + "*" + p
                    seq = paths[p] + (e,)
                    if len(seq) > len(objects):
                        raise StructureError("cyclic graph: path {} exceeds object count".format(name))
                    paths[name] = seq
                    ends[name] = (ends[p][0], t)
                    arrows[name] = ends[name]
                    nxt.append(name)
                    if len(arrows) > path_cap:
                        raise StructureError("path cap exceeded in free category")
        frontier = nxt
    by_seq = {seq: name for name, seq in paths.items()}
    compose = {}
    for g, gseq in paths.items():
        for f, fseq in paths.items():
            if ends[f][1] == ends[g][0]:
                compose[(g, f)] = by_seq[fseq + gseq]
    return build_category(tuple(objects), arrows, compose)


def full_subcategory(cat: FinCategory, objects) -> FinCategory:
    objects = tuple(o for o in cat.objects if o in set(objects))
    keep = {a for a in cat.arrows if cat.src[a] in objects and cat.tgt[a] in objects}
    arrows = {a: (cat.src[a], cat.tgt[a]) for a in cat.arrows if a in keep}
    identity = {c: cat.identity[c] for c in objects}
    table = {p: h for p, h in cat.table.items() if p[0] in keep and p[1] in keep}
    return validate_category(objects, arrows, identity, table)


class FinFunctor(Record):
    _fields = ("source", "target", "obj_map", "arr_map")

    def ob(self, x: str) -> str:
        return self.obj_map[x]

    def ar(self, f: str) -> str:
        return self.arr_map[f]

    def __repr__(self):
        return "FinFunctor({} -> {})".format(len(self.source.objects), len(self.target.objects))


def validate_functor(obj_map, arr_map, source: FinCategory, target: FinCategory) -> FinFunctor:
    """Check totality and functoriality; errors name the violated composite.

    A table entry with an identity factor is not checked: it is preserved
    once endpoints and identities are, by the unit laws of both categories.
    """
    obj_map, arr_map = dict(obj_map), dict(arr_map)
    for x in source.objects:
        if x not in obj_map:
            raise StructureError("dangling object {}".format(x), witness=x)
        if obj_map[x] not in target.identity:
            raise StructureError("object {} maps outside the target".format(x), witness=x)
    for f in source.arrows:
        g = arr_map.get(f)
        if g is None:
            raise StructureError("arrow {} has no image".format(f), witness=f)
        if g not in target.src:
            raise StructureError("arrow {} maps outside the target".format(f), witness=f)
        if target.src[g] != obj_map[source.src[f]] or target.tgt[g] != obj_map[source.tgt[f]]:
            raise StructureError("image of {} has wrong endpoints".format(f), witness=f)
    if len(obj_map) != len(source.objects):
        raise_stray_key(obj_map, source.identity, "image of unknown object {}")
    if len(arr_map) != len(source.arrows):
        raise_stray_key(arr_map, source.src, "image of unknown arrow {}")
    for c in source.objects:
        if arr_map[source.identity[c]] != target.identity[obj_map[c]]:
            raise StructureError("identity of {} not preserved".format(c), witness=c)
    ids, composite = source._ids, target.table
    for (g, f), h in source.table.items():
        if g not in ids and f not in ids and composite[(arr_map[g], arr_map[f])] != arr_map[h]:
            raise StructureError("composite ({}, {}) not preserved".format(g, f), witness=(g, f))
    return FinFunctor(source, target, obj_map, arr_map)


def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(cat, cat, {c: c for c in cat.objects}, {a: a for a in cat.arrows})


def constant_functor(source: FinCategory, target: FinCategory, obj: str) -> FinFunctor:
    return validate_functor(
        {c: obj for c in source.objects},
        {a: target.identity[obj] for a in source.arrows},
        source,
        target,
    )


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    if f.target != g.source:
        raise StructureError("functors not composable")
    return FinFunctor(
        f.source,
        g.target,
        {x: g.ob(f.ob(x)) for x in f.source.objects},
        {a: g.ar(f.ar(a)) for a in f.source.arrows},
    )


class NatTransform(Record):
    _fields = ("source", "target", "component")


def validate_transform(component, source: FinFunctor, target: FinFunctor) -> NatTransform:
    if source.source != target.source or source.target != target.target:
        raise StructureError("parallel functors required")
    cat, dcat = source.source, source.target
    component = dict(component)
    arrow_set = set(dcat.arrows)
    for c in cat.objects:
        a = component.get(c)
        if a is None:
            raise StructureError("missing component at {}".format(c), witness=c)
        if a not in arrow_set:
            raise StructureError("component at {} is not an arrow of the target".format(c), witness=c)
        if dcat.src[a] != source.ob(c) or dcat.tgt[a] != target.ob(c):
            raise StructureError("component at {} has wrong endpoints".format(c), witness=c)
    if len(component) != len(cat.objects):
        raise_stray_key(component, cat.identity, "component at unknown object {}")
    for f in cat.arrows:
        x, y = cat.src[f], cat.tgt[f]
        if dcat.compose(target.ar(f), component[x]) != dcat.compose(component[y], source.ar(f)):
            raise StructureError("naturality fails at {}".format(f), witness=f)
    return NatTransform(source, target, component)


def identity_transform(f: FinFunctor) -> NatTransform:
    return NatTransform(f, f, {c: f.target.identity[f.ob(c)] for c in f.source.objects})


def is_natural(component, source: FinFunctor, target: FinFunctor) -> bool:
    try:
        validate_transform(component, source, target)
        return True
    except StructureError:
        return False


# ---------------------------------------------------------------------------
# Comma categories


def _triple_name(d, d2, u):
    return "({},{},{})".format(d, d2, u)


class CommaCategory(Record):
    """The category of triples (d, d', u: F(d) -> G(d')) with its projections."""

    _fields = ("category", "left", "right", "obj_data", "arr_data")


def comma_category(f_leg: FinFunctor, g_leg: FinFunctor) -> CommaCategory:
    if f_leg.target != g_leg.target:
        raise StructureError("comma legs must share a target category")
    amb = f_leg.target
    cd, cd2 = f_leg.source, g_leg.source
    obj_data = {}
    for d in cd.objects:
        for d2 in cd2.objects:
            for u in amb.hom(f_leg.ob(d), g_leg.ob(d2)):
                obj_data[_triple_name(d, d2, u)] = (d, d2, u)
    names = tuple(sorted(obj_data))
    arr_data = {}
    arrows = {}
    for o1 in names:
        d1, d12, u1 = obj_data[o1]
        for o2 in names:
            d2, d22, u2 = obj_data[o2]
            for w in cd.hom(d1, d2):
                for w2 in cd2.hom(d12, d22):
                    if amb.compose(g_leg.ar(w2), u1) == amb.compose(u2, f_leg.ar(w)):
                        name = "({},{}):{}->{}".format(w, w2, o1, o2)
                        arr_data[name] = (w, w2)
                        arrows[name] = (o1, o2)
    identity = {}
    for o in names:
        d, d2, _ = obj_data[o]
        identity[o] = "({},{}):{}->{}".format(cd.identity[d], cd2.identity[d2], o, o)
    table = {}
    for b, a in composable_pairs(arrows):
        w2c = cd.compose(arr_data[b][0], arr_data[a][0])
        w2c2 = cd2.compose(arr_data[b][1], arr_data[a][1])
        table[(b, a)] = "({},{}):{}->{}".format(w2c, w2c2, arrows[a][0], arrows[b][1])
    cat = validate_category(names, arrows, identity, table)
    proj_l = validate_functor(
        {o: obj_data[o][0] for o in names},
        {a: arr_data[a][0] for a in arrows},
        cat,
        cd,
    )
    proj_r = validate_functor(
        {o: obj_data[o][1] for o in names},
        {a: arr_data[a][1] for a in arrows},
        cat,
        cd2,
    )
    return CommaCategory(cat, proj_l, proj_r, obj_data, arr_data)


class ArrowCategory(Record):
    _fields = ("category", "dom", "cod", "of_arrow")


def arrow_category(cat: FinCategory) -> ArrowCategory:
    """Built directly (not via comma) so it can serve as an independent oracle."""
    of_arrow = {u: "[{}]".format(u) for u in cat.arrows}
    names = tuple(sorted(of_arrow.values()))
    back = {v: k for k, v in of_arrow.items()}
    arrows = {}
    arr_data = {}
    for o1 in names:
        u1 = back[o1]
        for o2 in names:
            u2 = back[o2]
            for w1 in cat.hom(cat.src[u1], cat.src[u2]):
                for w2 in cat.hom(cat.tgt[u1], cat.tgt[u2]):
                    if cat.compose(u2, w1) == cat.compose(w2, u1):
                        name = "[{},{}]:{}->{}".format(w1, w2, o1, o2)
                        arrows[name] = (o1, o2)
                        arr_data[name] = (w1, w2)
    identity = {}
    for o in names:
        u = back[o]
        identity[o] = "[{},{}]:{}->{}".format(cat.identity[cat.src[u]], cat.identity[cat.tgt[u]], o, o)
    table = {}
    for b, a in composable_pairs(arrows):
        w1 = cat.compose(arr_data[b][0], arr_data[a][0])
        w2 = cat.compose(arr_data[b][1], arr_data[a][1])
        table[(b, a)] = "[{},{}]:{}->{}".format(w1, w2, arrows[a][0], arrows[b][1])
    acat = validate_category(names, arrows, identity, table)
    dom = validate_functor({o: cat.src[back[o]] for o in names}, {a: arr_data[a][0] for a in arrows}, acat, cat)
    cod = validate_functor({o: cat.tgt[back[o]] for o in names}, {a: arr_data[a][1] for a in arrows}, acat, cat)
    return ArrowCategory(acat, dom, cod, of_arrow)


def representatives(nodes, links) -> dict:
    """Map each of ``nodes`` to a representative of its connected component
    under the undirected ``links`` (pairs of nodes): union-find with path
    halving, each link putting the root of its second node under the root of
    its first."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return {x: find(x) for x in parent}


def connected_components(cat: FinCategory) -> tuple[tuple[str, ...], ...]:
    """Partition of objects by zig-zag reachability (arrows in either direction)."""
    rep = representatives(cat.objects, ((cat.src[a], cat.tgt[a]) for a in cat.arrows))
    groups: dict[str, list[str]] = {}
    for c in cat.objects:
        groups.setdefault(rep[c], []).append(c)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))


# ---------------------------------------------------------------------------
# Adjunctions and equivalences


class Adjunction(Record):
    """left -| right with left: A -> B, right: B -> A.

    unit has components at A-objects (a -> right(left(a))), counit at
    B-objects (left(right(b)) -> b).
    """

    _fields = ("left", "right", "unit", "counit")


def check_adjunction(left: FinFunctor, right: FinFunctor, unit: dict[str, str], counit: dict[str, str]) -> bool:
    """True iff (unit, counit) exhibit left -| right via the triangle identities.

    Returns False when the supplied components do not even typecheck as
    Id => right.left / left.right => Id; raises only on incomposable functors.
    """
    if left.source != right.target or left.target != right.source:
        raise StructureError("functors do not form a composable adjoint pair")
    a_cat, b_cat = left.source, left.target
    if not is_natural(unit, identity_functor(a_cat), compose_functors(right, left)):
        return False
    if not is_natural(counit, compose_functors(left, right), identity_functor(b_cat)):
        return False
    for a in a_cat.objects:
        lhs = b_cat.compose(counit[left.ob(a)], left.ar(unit[a]))
        if lhs != b_cat.identity[left.ob(a)]:
            return False
    for b in b_cat.objects:
        lhs = a_cat.compose(right.ar(counit[b]), unit[right.ob(b)])
        if lhs != a_cat.identity[right.ob(b)]:
            return False
    return True


def validate_adjunction(left, right, unit, counit) -> Adjunction:
    if not check_adjunction(left, right, unit, counit):
        raise StructureError("triangle identities fail for the supplied adjunction data")
    return Adjunction(left, right, dict(unit), dict(counit))


def is_equivalence(f: FinFunctor) -> tuple[bool, tuple]:
    """Full + faithful + essentially surjective, by exhaustive hom comparison.

    The witness is either the failing datum or a per-object iso table.
    """
    src, tgt = f.source, f.target
    for x in src.objects:
        for y in src.objects:
            seen = {}
            for a in src.hom(x, y):
                img = f.ar(a)
                if img in seen:
                    return False, ("not_faithful", (x, y, seen[img], a))
                seen[img] = a
            for g in tgt.hom(f.ob(x), f.ob(y)):
                if g not in seen:
                    return False, ("not_full", (x, y, g))
    table = {}
    for d in tgt.objects:
        hit = None
        for c in src.objects:
            for a in tgt.hom(f.ob(c), d):
                if tgt.is_iso(a):
                    hit = (c, a)
                    break
            if hit:
                break
        if hit is None:
            return False, ("not_essentially_surjective", d)
        table[d] = hit
    return True, ("essential_preimages", tuple(sorted(table.items())))


# ---------------------------------------------------------------------------
# Backtracking


def backtrack(choices, checks):
    """Yield, depth first, every assignment of slots 0..len(checks)-1 that
    passes every check, as a tuple.

    ``choices(i)`` gives slot i's candidates in trial order; it is called
    each time the search enters slot i, so a caller may shuffle there.
    ``checks[i]`` holds the conditions whose last slot read is i; each takes
    the assignment list and is tested once per prefix (Knuth, TAOCP 4B,
    7.2.2).
    """
    n = len(checks)
    if n == 0:
        yield ()
        return
    assign = [None] * n
    stack = [iter(choices(0))]
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            assign[i] = value
            if all(test(assign) for test in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 == n:
            yield tuple(assign)
        else:
            stack.append(iter(choices(i + 1)))


def entries_by_last_arrow(cat: FinCategory, arrows) -> list[list[tuple[str, str, str]]]:
    """The table entries (g, f) -> h of ``cat`` with g and f in ``arrows``
    (its non-identity arrows in search order), as (g, f, h) filed under the
    position of the last of g, f, h there.  An entry with an identity factor
    holds for any map that keeps endpoints and identities, so is not filed."""
    position = {a: i for i, a in enumerate(arrows)}
    entries: list[list[tuple[str, str, str]]] = [[] for _ in arrows]
    for (g, f), h in cat.table.items():
        if g in position and f in position:
            entries[max(position[g], position[f], position.get(h, -1))].append((g, f, h))
    return entries
