"""Site-bundle documents: a JSON format for categories, topologies, indexed
categories, functors, natural transformations and presheaves.

A topology entry maps objects to generator families, never to saturated
cover sets, and ``saturate`` takes that map as it is on load.  Composition
tables may be sparse: the composites forced by the identity field are filled
in.  Anything else left undefined, and any table of the wrong JSON type, is
an error located at its entry's path.
"""
from __future__ import annotations

from .fincat import (
    FinCategory,
    FinFunctor,
    NatTransform,
    Record,
    StructureError,
    validate_category,
    validate_functor,
    validate_transform,
)
from .fibration import IndexedCategory, validate_indexed
from .presheaf import Presheaf, validate_presheaf
from .sieves import CapExceeded, Topology, maximal_sieve, saturate


SECTIONS = ("categories", "functors", "topologies", "indexed", "naturals", "presheaves")


class BundleError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__("{}: {}".format(path, message))
        self.path = path
        self.reason = message


class Workspace(Record):
    """Loaded entries by section and name.  Unlike the other records a
    workspace is mutable, so unhashable: its sections may be assigned."""

    _fields = ("categories", "topologies", "indexed", "functors", "naturals", "presheaves")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        categories: dict[str, FinCategory] | None = None,
        topologies: dict[str, Topology] | None = None,
        indexed: dict[str, IndexedCategory] | None = None,
        functors: dict[str, FinFunctor] | None = None,
        naturals: dict[str, NatTransform] | None = None,
        presheaves: dict[str, Presheaf] | None = None,
    ):
        self.categories = {} if categories is None else categories
        self.topologies = {} if topologies is None else topologies
        self.indexed = {} if indexed is None else indexed
        self.functors = {} if functors is None else functors
        self.naturals = {} if naturals is None else naturals
        self.presheaves = {} if presheaves is None else presheaves


def _load_category(get, path: str, doc: dict) -> FinCategory:
    if "objects" not in doc:
        raise BundleError(path, "malformed tables: no objects")
    objects = list(doc["objects"])
    arrows = {a: tuple(st) for a, st in doc.get("arrows", {}).items()}
    identity = dict(doc.get("identity", {}))
    for c in objects:
        if c not in identity:
            auto = "id_{}".format(c)
            identity[c] = auto
            arrows.setdefault(auto, (c, c))
    table = {}
    for i, entry in enumerate(doc.get("compose", [])):
        if len(entry) != 3:
            raise BundleError("{}/compose/{}".format(path, i), "entries are [after, first, result]")
        g, f, h = entry
        table[(g, f)] = h
    for a, st in arrows.items():
        if len(st) != 2:
            raise BundleError("{}/arrows/{}".format(path, a), "endpoints must be [src, tgt]")
        s, t = st
        if s in identity and identity[s] in arrows:
            table.setdefault((a, identity[s]), a)
        if t in identity and identity[t] in arrows:
            table.setdefault((identity[t], a), a)
    return validate_category(objects, arrows, identity, table)


def _load_functor(get, path: str, entry: dict) -> FinFunctor:
    src = get("categories", entry.get("source"), path, "category")
    tgt = get("categories", entry.get("target"), path, "category")
    objects = dict(entry.get("objects", {}))
    arr = dict(entry.get("arrows", {}))
    for c, i in src.identity.items():
        if objects.get(c) in tgt.identity:
            arr.setdefault(i, tgt.identity[objects[c]])
    return validate_functor(objects, arr, src, tgt)


def _load_topology(get, path: str, entry: dict) -> Topology:
    cat = get("categories", entry.get("category"), path, "category")
    return saturate(cat, entry.get("covers", {}))


def _load_indexed(get, path: str, entry: dict) -> IndexedCategory:
    base = get("categories", entry.get("base"), path, "category")
    fibers = {
        c: get("categories", ref, "{}/fibers/{}".format(path, c), "category")
        for c, ref in entry.get("fibers", {}).items()
    }
    restriction = {
        f: get("functors", ref, "{}/restrictions/{}".format(path, f), "functor")
        for f, ref in entry.get("restrictions", {}).items()
    }
    return validate_indexed(base, fibers, restriction)


def _load_natural(get, path: str, entry: dict) -> NatTransform:
    src = get("functors", entry.get("source"), path, "functor")
    tgt = get("functors", entry.get("target"), path, "functor")
    return validate_transform(entry.get("components", {}), src, tgt)


def _load_presheaf(get, path: str, entry: dict) -> Presheaf:
    cat = get("categories", entry.get("category"), path, "category")
    actions = {f: dict(m) for f, m in entry.get("actions", {}).items()}
    return validate_presheaf(cat, entry.get("values", {}), actions)


# section -> loader(get, path, entry); a loader reads every entry it
# references through ``get``
_LOADERS = {
    "categories": _load_category,
    "functors": _load_functor,
    "topologies": _load_topology,
    "indexed": _load_indexed,
    "naturals": _load_natural,
    "presheaves": _load_presheaf,
}


def read_document(source) -> dict:
    """The sections of a bundle given as a path, JSON text, file object or
    parsed dict: section -> entry name -> its JSON entry, unchecked."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        elif "\n" not in str(source) and not str(source).lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise BundleError("/", "parse error: {}".format(err))
    try:
        return {key: dict(doc.get(key, {})) for key in SECTIONS}
    except (TypeError, AttributeError, ValueError) as err:
        raise BundleError("/", "malformed tables: {}".format(err))


class _Resolver:
    """Loads the entries of ``sections`` into ``ws``.  Loaders read the
    entries they reference through the bound ``get``; nothing keeps that
    bound method, so loading leaves no cycle for the collector."""

    def __init__(self, sections: dict):
        self.sections = sections
        self.ws = Workspace()

    def get(self, section, name, path, kind):
        """The entry, loaded on first use.  Loading and validation read JSON
        as maps and lists; a table of another JSON type fails there with
        TypeError, AttributeError or ValueError, reported as malformed."""
        loaded = getattr(self.ws, section)
        if name not in loaded:
            entries = self.sections[section]
            if name not in entries:
                raise BundleError(path, "dangling reference to {} {!r}".format(kind, name))
            entry_path = "{}/{}".format(section, name)
            try:
                loaded[name] = _LOADERS[section](self.get, entry_path, entries[name])
            except BundleError:
                raise
            except (StructureError, CapExceeded) as err:
                raise BundleError(entry_path, str(err))
            except (TypeError, AttributeError, ValueError) as err:
                raise BundleError(entry_path, "malformed tables: {}".format(err))
        return loaded[name]


def load_bundle(source, names=None) -> Workspace:
    """Load and validate a bundle from a path, JSON text, file object or
    parsed dict.

    An entry is loaded on first use: its references are loaded first, every
    one must resolve, and each entry passes its module validator.  Errors
    carry the offending entry's path.  ``names`` maps sections to the entry
    names wanted; only those entries and the entries they reference, directly
    or not, are loaded, and a name the document lacks is skipped.  Without
    ``names`` every entry is loaded, section by section in ``SECTIONS`` order
    and by sorted name, so the first malformed entry is the one reported.
    """
    return load_sections(read_document(source), names)


def load_sections(sections: dict, names=None) -> Workspace:
    """``load_bundle`` on the sections ``read_document`` returned."""
    resolver = _Resolver(sections)
    wanted = sections if names is None else names
    for section in SECTIONS:
        for name in sorted(wanted.get(section, ())):
            if name in sections[section]:  # so the "/" location is never reported
                resolver.get(section, name, "/", section)
    return resolver.ws


def category_to_json(cat: FinCategory) -> dict:
    non_unit = {}
    for (g, f), h in sorted(cat.table.items()):
        if cat.is_identity(g) or cat.is_identity(f):
            continue
        non_unit.setdefault((g, f), h)
    return {
        "objects": list(cat.objects),
        "arrows": {a: [cat.src[a], cat.tgt[a]] for a in cat.arrows},
        "identity": dict(sorted(cat.identity.items())),
        "compose": [[g, f, h] for (g, f), h in sorted(non_unit.items())],
    }


def topology_to_json(top: Topology, category_name: str) -> dict:
    """Emit a small generating set: the least cover per object (omitted when
    it is the maximal sieve, which every topology contains)."""
    covers = {}
    for c in top.base.objects:
        least = top.least[c]
        covers[c] = [] if least == maximal_sieve(top.base, c) else [sorted(least)]
    return {"category": category_name, "covers": covers}


def functor_to_json(fn: FinFunctor, source_name: str, target_name: str) -> dict:
    return {
        "source": source_name,
        "target": target_name,
        "objects": dict(sorted(fn.obj_map.items())),
        "arrows": dict(sorted(fn.arr_map.items())),
    }


def presheaf_to_json(p: Presheaf, category_name: str) -> dict:
    return {
        "category": category_name,
        "values": {c: list(p.values[c]) for c in p.base.objects},
        "actions": {f: dict(sorted(p.action[f].items())) for f in p.base.arrows},
    }


def workspace_to_json(ws: Workspace) -> dict:
    """Serialize a workspace; inverse to load_bundle up to saturation."""

    def key(fn: FinFunctor) -> tuple:
        return (fn.source, fn.target, tuple(sorted(fn.obj_map.items())), tuple(sorted(fn.arr_map.items())))

    cat_names = {}
    doc: dict = {section: {} for section in ws._fields}
    for name in sorted(ws.categories):
        cat_names[ws.categories[name]] = name
        doc["categories"][name] = category_to_json(ws.categories[name])
    fun_names = {}
    for name in sorted(ws.functors):
        fn = ws.functors[name]
        doc["functors"][name] = functor_to_json(fn, cat_names[fn.source], cat_names[fn.target])
        fun_names[key(fn)] = name
    for name in sorted(ws.topologies):
        top = ws.topologies[name]
        doc["topologies"][name] = topology_to_json(top, cat_names[top.base])
    for name in sorted(ws.indexed):
        cix = ws.indexed[name]
        entry = {
            "base": cat_names[cix.base],
            "fibers": {c: cat_names[cix.fiber[c]] for c in cix.base.objects},
            "restrictions": {},
        }
        for f in cix.base.arrows:
            if cix.base.is_identity(f):
                continue
            entry["restrictions"][f] = fun_names[key(cix.restriction[f])]
        doc["indexed"][name] = entry
    for name in sorted(ws.naturals):
        nt = ws.naturals[name]
        doc["naturals"][name] = {
            "source": fun_names[key(nt.source)],
            "target": fun_names[key(nt.target)],
            "components": dict(sorted(nt.component.items())),
        }
    for name in sorted(ws.presheaves):
        p = ws.presheaves[name]
        doc["presheaves"][name] = presheaf_to_json(p, cat_names[p.base])
    return doc


def dumps_canonical(doc: dict) -> str:
    import json

    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
