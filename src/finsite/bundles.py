"""Site-bundle documents: a JSON format for categories, topologies, indexed
categories, functors, natural transformations and presheaves.

A topology entry maps objects to generator families, never to saturated
cover sets, and ``saturate`` takes that map as it is on load.  Composition
tables may be sparse: the composites forced by the identity field are filled
in.  Anything else left undefined, and any table of the wrong JSON type, is
an error located at its entry's path.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from .fincat import (
    FinCategory,
    FinFunctor,
    NatTransform,
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


@dataclass
class Workspace:
    categories: dict[str, FinCategory] = field(default_factory=dict)
    topologies: dict[str, Topology] = field(default_factory=dict)
    indexed: dict[str, IndexedCategory] = field(default_factory=dict)
    functors: dict[str, FinFunctor] = field(default_factory=dict)
    naturals: dict[str, NatTransform] = field(default_factory=dict)
    presheaves: dict[str, Presheaf] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (
            self.categories == other.categories
            and self.topologies == other.topologies
            and {k: (v.base, v.fiber, v.restriction.keys()) for k, v in self.indexed.items()}
            == {k: (v.base, v.fiber, v.restriction.keys()) for k, v in other.indexed.items()}
            and self.functors == other.functors
            and self.naturals == other.naturals
            and self.presheaves == other.presheaves
        )


def _need(mapping, key, path, kind):
    if key not in mapping:
        raise BundleError(path, "dangling reference to {} {!r}".format(kind, key))
    return mapping[key]


@contextmanager
def _at(path: str):
    """Raise a failed validation as a BundleError located at ``path``.

    Loading and validation read JSON as maps and lists; a table of another
    JSON type fails there with TypeError, AttributeError or ValueError, and
    is reported here as malformed."""
    try:
        yield
    except BundleError:
        raise
    except (StructureError, CapExceeded) as err:
        raise BundleError(path, str(err))
    except (TypeError, AttributeError, ValueError) as err:
        raise BundleError(path, "malformed tables: {}".format(err))


def load_category(name: str, doc: dict) -> FinCategory:
    path = "categories/{}".format(name)
    with _at(path):
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


def load_bundle(source) -> Workspace:
    """Load and validate a bundle from a path, JSON text or parsed dict.

    Every cross-reference must resolve and every structure passes its
    module validator; errors carry the offending entry's path.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        elif "\n" not in str(source) and not str(source).lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise BundleError("/", "parse error: {}".format(err))
    with _at("/"):
        sections = {key: dict(doc.get(key, {})) for key in SECTIONS}
    ws = Workspace()
    for name in sorted(sections["categories"]):
        ws.categories[name] = load_category(name, sections["categories"][name])
    for name, entry in sorted(sections["functors"].items()):
        path = "functors/{}".format(name)
        with _at(path):
            src = _need(ws.categories, entry.get("source"), path, "category")
            tgt = _need(ws.categories, entry.get("target"), path, "category")
            objects = dict(entry.get("objects", {}))
            arr = dict(entry.get("arrows", {}))
            for c, i in src.identity.items():
                if objects.get(c) in tgt.identity:
                    arr.setdefault(i, tgt.identity[objects[c]])
            ws.functors[name] = validate_functor(objects, arr, src, tgt)
    for name, entry in sorted(sections["topologies"].items()):
        path = "topologies/{}".format(name)
        with _at(path):
            cat = _need(ws.categories, entry.get("category"), path, "category")
            ws.topologies[name] = saturate(cat, entry.get("covers", {}))
    for name, entry in sorted(sections["indexed"].items()):
        path = "indexed/{}".format(name)
        with _at(path):
            base = _need(ws.categories, entry.get("base"), path, "category")
            fibers = {}
            for c, ref in entry.get("fibers", {}).items():
                fibers[c] = _need(ws.categories, ref, "{}/fibers/{}".format(path, c), "category")
            restriction = {}
            for f, ref in entry.get("restrictions", {}).items():
                restriction[f] = _need(ws.functors, ref, "{}/restrictions/{}".format(path, f), "functor")
            ws.indexed[name] = validate_indexed(base, fibers, restriction)
    for name, entry in sorted(sections["naturals"].items()):
        path = "naturals/{}".format(name)
        with _at(path):
            src = _need(ws.functors, entry.get("source"), path, "functor")
            tgt = _need(ws.functors, entry.get("target"), path, "functor")
            ws.naturals[name] = validate_transform(entry.get("components", {}), src, tgt)
    for name, entry in sorted(sections["presheaves"].items()):
        path = "presheaves/{}".format(name)
        with _at(path):
            cat = _need(ws.categories, entry.get("category"), path, "category")
            actions = {f: dict(m) for f, m in entry.get("actions", {}).items()}
            ws.presheaves[name] = validate_presheaf(cat, entry.get("values", {}), actions)
    return ws


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
    cat_names = {}
    doc: dict = {"categories": {}, "topologies": {}, "indexed": {}, "functors": {}, "naturals": {}, "presheaves": {}}
    for name in sorted(ws.categories):
        cat_names[ws.categories[name]] = name
        doc["categories"][name] = category_to_json(ws.categories[name])
    fun_names = {}
    for name in sorted(ws.functors):
        fn = ws.functors[name]
        doc["functors"][name] = functor_to_json(fn, cat_names[fn.source], cat_names[fn.target])
        fun_names[(fn.source, fn.target, tuple(sorted(fn.obj_map.items())), tuple(sorted(fn.arr_map.items())))] = name
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
            fn = cix.restriction[f]
            key = (fn.source, fn.target, tuple(sorted(fn.obj_map.items())), tuple(sorted(fn.arr_map.items())))
            entry["restrictions"][f] = fun_names[key]
        doc["indexed"][name] = entry
    for name in sorted(ws.naturals):
        nt = ws.naturals[name]
        src_key = (nt.source.source, nt.source.target, tuple(sorted(nt.source.obj_map.items())), tuple(sorted(nt.source.arr_map.items())))
        tgt_key = (nt.target.source, nt.target.target, tuple(sorted(nt.target.obj_map.items())), tuple(sorted(nt.target.arr_map.items())))
        doc["naturals"][name] = {
            "source": fun_names[src_key],
            "target": fun_names[tgt_key],
            "components": dict(sorted(nt.component.items())),
        }
    for name in sorted(ws.presheaves):
        p = ws.presheaves[name]
        doc["presheaves"][name] = presheaf_to_json(p, cat_names[p.base])
    return doc


def save_bundle(ws: Workspace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workspace_to_json(ws), fh, indent=1, sort_keys=True)
        fh.write("\n")


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
