"""The shipped corpus: small sites, fibrations and functors used everywhere.

One                 the terminal category.
Walk2 / Sier        free category on one arrow u: a -> b, with the topology
                    whose only non-maximal cover of b is the sieve on u.
TwoPoint            discrete two-point fiber over b, one point over a.
Chain3              the poset a0 <= a1 <= a2 with a one-step cover of a2.
Retract             a split epi e: s -> r with section m and idempotent t = m.e;
                    the smallest non-poset corpus site.
"""
from __future__ import annotations

from .fincat import (
    Adjunction,
    FinCategory,
    FinFunctor,
    build_category,
    constant_functor,
    poset_category,
    terminal_category,
    validate_adjunction,
    validate_functor,
)
from .fibration import IndexedCategory, validate_indexed
from .sieves import Topology, saturate, trivial_topology


def one() -> FinCategory:
    return terminal_category()


def walk2() -> FinCategory:
    return build_category(("a", "b"), {"u": ("a", "b")})


def sier(base: FinCategory | None = None) -> Topology:
    base = base or walk2()
    return saturate(base, {"b": [["u"]]})


def discrete(objects) -> FinCategory:
    return build_category(tuple(objects), {})


def two_point(base: FinCategory | None = None) -> IndexedCategory:
    base = base or walk2()
    fiber_b = discrete(("x0", "x1"))
    fiber_a = discrete(("y",))
    restrict_u = constant_functor(fiber_b, fiber_a, "y")
    return validate_indexed(base, {"a": fiber_a, "b": fiber_b}, {"u": restrict_u})


def chain3() -> FinCategory:
    return poset_category(("a0", "a1", "a2"), [("a0", "a1"), ("a1", "a2")])


def chain3_topology(base: FinCategory | None = None) -> Topology:
    base = base or chain3()
    return saturate(base, {"a2": [["a1->a2"]]})


def retract() -> FinCategory:
    arrows = {"e": ("s", "r"), "m": ("r", "s"), "t": ("s", "s")}
    compose = {
        ("e", "m"): "id_r",
        ("m", "e"): "t",
        ("t", "t"): "t",
        ("e", "t"): "e",
        ("t", "m"): "m",
    }
    return build_category(("r", "s"), arrows, compose)


def retract_topology(base: FinCategory | None = None) -> Topology:
    base = base or retract()
    return saturate(base, {"s": [["m"]]})


def iso2() -> FinCategory:
    """Two objects joined by an isomorphism (skeleton tests)."""
    arrows = {"i": ("y", "z"), "j": ("z", "y")}
    compose = {("i", "j"): "id_z", ("j", "i"): "id_y"}
    return build_category(("y", "z"), arrows, compose)


def bang(cat: FinCategory) -> FinFunctor:
    """The unique functor into One."""
    target = one()
    return validate_functor(
        {c: "*" for c in cat.objects}, {a: "id_*" for a in cat.arrows}, cat, target
    )


def pick(cat: FinCategory, obj: str) -> FinFunctor:
    """One -> cat selecting an object."""
    return constant_functor(one(), cat, obj)


def walk2_terminal_adjunction() -> Adjunction:
    """bang -| pick b: the object b is terminal in Walk2."""
    w = walk2()
    return validate_adjunction(
        bang(w), pick(w, "b"), unit={"a": "u", "b": "id_b"}, counit={"*": "id_*"}
    )


def corpus_sites() -> tuple[tuple[str, FinCategory, Topology], ...]:
    w = walk2()
    c3 = chain3()
    r = retract()
    return (
        ("one-trivial", one(), trivial_topology(one())),
        ("walk2-trivial", w, trivial_topology(w)),
        ("walk2-sier", w, sier(w)),
        ("chain3", c3, chain3_topology(c3)),
        ("retract", r, retract_topology(r)),
    )


def corpus_workspace():
    """The shipped corpus as one workspace (also serialised into data/)."""
    from .bundles import Workspace
    from .fibration import giraud_topology, grothendieck
    from .presheaf import validate_presheaf

    ws = Workspace()
    w = walk2()
    tp = two_point(w)
    bundle = grothendieck(tp)
    ws.categories = {
        "one": one(),
        "walk2": w,
        "chain3": chain3(),
        "retract": retract(),
        "disc1": tp.fiber["a"],
        "disc2": tp.fiber["b"],
        "twopoint_total": bundle.total,
    }
    sier_top = sier(w)
    ws.topologies = {
        "trivial_one": trivial_topology(one()),
        "trivial_walk2": trivial_topology(w),
        "sier": sier_top,
        "chain3_top": chain3_topology(),
        "retract_top": retract_topology(),
        "gir_twopoint": giraud_topology(tp, sier_top),
        "trivial_total": trivial_topology(bundle.total),
    }
    from .fincat import compose_functors, identity_functor, validate_transform

    adj = walk2_terminal_adjunction()
    ws.functors = {
        "bang": bang(w),
        "pick_a": pick(w, "a"),
        "pick_b": pick(w, "b"),
        "restrict_u": tp.restriction["u"],
        "p": bundle.projection,
        "id_walk2": identity_functor(w),
        "pick_b_bang": compose_functors(adj.right, adj.left),
    }
    ws.indexed = {"twopoint": tp}
    ws.naturals = {
        "terminal_unit": validate_transform(
            adj.unit, identity_functor(w), compose_functors(adj.right, adj.left)
        )
    }
    ws.presheaves = {
        "twofold": validate_presheaf(w, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}}),
        "point": validate_presheaf(w, {"a": ("*",), "b": ("*",)}, {"u": {"*": "*"}}),
    }
    return ws
