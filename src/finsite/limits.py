"""Exhaustive finite-limit search in small categories.

Terminal object + binary products + equalizers suffice for all finite
limits; every universal property is decided by brute-force cone counting.
"""
from __future__ import annotations

from .fincat import FinCategory, FinFunctor, Record


def is_terminal(cat: FinCategory, t: str) -> bool:
    return all(len(cat.hom(x, t)) == 1 for x in cat.objects)


def terminal_objects(cat: FinCategory) -> tuple[str, ...]:
    return tuple(t for t in cat.objects if is_terminal(cat, t))


def is_product_cone(cat: FinCategory, x: str, y: str, apex: str, p1: str, p2: str) -> bool:
    if cat.src[p1] != apex or cat.tgt[p1] != x or cat.src[p2] != apex or cat.tgt[p2] != y:
        return False
    for z in cat.objects:
        for f in cat.hom(z, x):
            for g in cat.hom(z, y):
                mediators = [
                    h
                    for h in cat.hom(z, apex)
                    if cat.compose(p1, h) == f and cat.compose(p2, h) == g
                ]
                if len(mediators) != 1:
                    return False
    return True


def find_product(cat: FinCategory, x: str, y: str):
    for apex in cat.objects:
        for p1 in cat.hom(apex, x):
            for p2 in cat.hom(apex, y):
                if is_product_cone(cat, x, y, apex, p1, p2):
                    return (apex, p1, p2)
    return None


def is_equalizer_cone(cat: FinCategory, f: str, g: str, apex: str, m: str) -> bool:
    x = cat.src[f]
    if cat.src[m] != apex or cat.tgt[m] != x:
        return False
    if cat.compose(f, m) != cat.compose(g, m):
        return False
    for z in cat.objects:
        for k in cat.hom(z, x):
            if cat.compose(f, k) != cat.compose(g, k):
                continue
            mediators = [h for h in cat.hom(z, apex) if cat.compose(m, h) == k]
            if len(mediators) != 1:
                return False
    return True


def find_equalizer(cat: FinCategory, f: str, g: str):
    for apex in cat.objects:
        for m in cat.hom(apex, cat.src[f]):
            if is_equalizer_cone(cat, f, g, apex, m):
                return (apex, m)
    return None


class LimitCones(Record):
    _fields = ("terminal", "products", "equalizers")


def finite_limits(cat: FinCategory):
    """(ok, witness, cones): search a terminal object, all binary products and
    all equalizers of parallel pairs."""
    terminals = terminal_objects(cat)
    if not terminals:
        return False, ("no_terminal",), None
    products = {}
    for x in cat.objects:
        for y in cat.objects:
            cone = find_product(cat, x, y)
            if cone is None:
                return False, ("no_product", (x, y)), None
            products[(x, y)] = cone
    equalizers = {}
    for f in cat.arrows:
        for g in cat.arrows:
            if cat.src[f] == cat.src[g] and cat.tgt[f] == cat.tgt[g]:
                cone = find_equalizer(cat, f, g)
                if cone is None:
                    return False, ("no_equalizer", (f, g)), None
                equalizers[(f, g)] = cone
    return True, (), LimitCones(terminals[0], products, equalizers)


def preserves_cones(functor: FinFunctor, cones: LimitCones):
    """Does the functor send the chosen cones to limit cones in its target?"""
    tgt = functor.target
    if not is_terminal(tgt, functor.ob(cones.terminal)):
        return False, ("terminal_not_preserved", cones.terminal)
    for (x, y), (apex, p1, p2) in sorted(cones.products.items()):
        if not is_product_cone(tgt, functor.ob(x), functor.ob(y), functor.ob(apex), functor.ar(p1), functor.ar(p2)):
            return False, ("product_not_preserved", (x, y))
    for (f, g), (apex, m) in sorted(cones.equalizers.items()):
        if not is_equalizer_cone(tgt, functor.ar(f), functor.ar(g), functor.ob(apex), functor.ar(m)):
            return False, ("equalizer_not_preserved", (f, g))
    return True, ()


def reflects_limits_jointly(functor: FinFunctor, base_proj: FinFunctor):
    """Limit reflection for a pullback projection: a cone is a limit upstairs
    whenever its image under the projection AND its base image are limits.

    Covers terminal objects, binary products and equalizers; this is the
    "limits in a fibration are base limits plus fiberwise data" reading, and
    it is what a genuinely limit-preserving base functor guarantees.  Many
    cones upstairs share an image, so each image cone is decided once per
    call: ``up`` and ``down`` map an image in the target and in the base to
    its verdict (a terminal object is a string, a product cone a 5-tuple and
    an equalizer cone a 4-tuple, so the three kinds never share a key).
    """
    src, tgt = functor.source, functor.target
    base = base_proj.target
    ob, ar, base_ob, base_ar = functor.obj_map, functor.arr_map, base_proj.obj_map, base_proj.arr_map
    up, down = {}, {}
    for t in src.objects:
        image, base_image = ob[t], base_ob[t]
        if image not in up:
            up[image] = is_terminal(tgt, image)
        if not up[image]:
            continue
        if base_image not in down:
            down[base_image] = is_terminal(base, base_image)
        if down[base_image] and not is_terminal(src, t):
            return False, ("terminal_not_reflected", t)
    for x in src.objects:
        for y in src.objects:
            for apex in src.objects:
                for p1 in src.hom(apex, x):
                    for p2 in src.hom(apex, y):
                        image = (ob[x], ob[y], ob[apex], ar[p1], ar[p2])
                        if image not in up:
                            up[image] = is_product_cone(tgt, *image)
                        if not up[image]:
                            continue
                        base_image = (base_ob[x], base_ob[y], base_ob[apex], base_ar[p1], base_ar[p2])
                        if base_image not in down:
                            down[base_image] = is_product_cone(base, *base_image)
                        if down[base_image] and not is_product_cone(src, x, y, apex, p1, p2):
                            return False, ("product_not_reflected", (x, y, apex, p1, p2))
    for f in src.arrows:
        for g in src.hom(src.src[f], src.tgt[f]):
            for apex in src.objects:
                for m in src.hom(apex, src.src[f]):
                    image = (ar[f], ar[g], ob[apex], ar[m])
                    if image not in up:
                        up[image] = is_equalizer_cone(tgt, *image)
                    if not up[image]:
                        continue
                    base_image = (base_ar[f], base_ar[g], base_ob[apex], base_ar[m])
                    if base_image not in down:
                        down[base_image] = is_equalizer_cone(base, *base_image)
                    if down[base_image] and not is_equalizer_cone(src, f, g, apex, m):
                        return False, ("equalizer_not_reflected", (f, g, apex, m))
    return True, ()
