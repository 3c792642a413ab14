"""The per-report interning scope of ``poset_category`` and ``build_category``."""
from dataclasses import replace

import pytest

from finsite import fincat
from finsite.experiments import EXPERIMENTS, run_experiment
from finsite.fibration import is_cartesian_fibration
from finsite.fincat import StructureError, build_category, interning, poset_category, terminal_category, validate_category
from finsite.generate import Caps, derive_seed, generate_instance
from finsite.limits import finite_limits
from finsite.sieves import sieve_lattice

DIAMOND = (("a", "b", "c", "d"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
SPAN = (("x", "y", "z"), {"u": ("x", "y"), "v": ("x", "z")})


def test_the_table_is_gone_after_a_report_even_when_the_report_raises(monkeypatch):
    assert fincat._interned is None
    run_experiment("comma-kernel", 0, Caps(instances=2))
    assert fincat._interned is None
    seen = []

    def boom(inst, caps):
        poset_category(*DIAMOND)
        seen.append(dict(fincat._interned))
        raise RuntimeError("boom")

    spec = replace(EXPERIMENTS["comma-kernel"], check=boom, fixed=lambda: [("boom", {})])
    monkeypatch.setitem(EXPERIMENTS, "comma-kernel", spec)
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment("comma-kernel", 0, Caps(instances=2))
    assert len(seen) == 1 and len(seen[0]) == 1
    assert fincat._interned is None


def test_a_nested_scope_shares_the_outer_table():
    with interning():
        outer = poset_category(*DIAMOND)
        with interning():
            assert poset_category(*DIAMOND) is outer
            inner = build_category(*SPAN)
        assert build_category(*SPAN) is inner
        assert fincat._interned is not None
    assert fincat._interned is None


def test_a_failing_poset_raises_on_every_call_with_the_same_witness():
    cycle = (("p", "q", "r"), [("p", "q"), ("q", "r"), ("r", "p")])
    with pytest.raises(StructureError) as outside:
        poset_category(*cycle)
    with interning():
        for _ in range(3):
            with pytest.raises(StructureError) as inside:
                poset_category(*cycle)
            assert str(inside.value) == str(outside.value)
            assert inside.value.witness == outside.value.witness
        assert fincat._interned == {}


def test_repeat_calls_share_one_category_equal_to_a_fresh_build():
    presentations = [
        (poset_category, DIAMOND),
        (poset_category, (("b", "a"), {("a", "b")})),
        (build_category, SPAN),
        (build_category, (("m",), {"e": ("m", "m")}, {("e", "e"): "e"})),
    ]
    with interning():
        shared = [make(*args) for make, args in presentations]
        assert all(make(*args) is cat for (make, args), cat in zip(presentations, shared))
        assert terminal_category() is terminal_category()
    for (make, args), cat in zip(presentations, shared):
        fresh = make(*args)
        assert fresh is not cat and fresh == cat
        assert list(fresh.table.items()) == list(cat.table.items())
        assert (fresh.objects, fresh.arrows, fresh.identity) == (cat.objects, cat.arrows, cat.identity)


def test_outside_a_scope_every_call_builds_a_new_category():
    assert poset_category(*DIAMOND) is not poset_category(*DIAMOND)
    assert fincat._interned is None


DERIVED = {"sieve_lattice", "finite_limits"}


def assert_scratch_is_derived(cat):
    """``cat._scratch`` holds only sieve lattices and the finite-limit search,
    each equal to its value on an unshared copy of ``cat``."""
    assert set(cat._scratch) <= DERIVED
    copy = validate_category(cat.objects, {a: (cat.src[a], cat.tgt[a]) for a in cat.arrows}, cat.identity, cat.table)
    for c, lattice in cat._scratch.get("sieve_lattice", {}).items():
        assert lattice == sieve_lattice(copy, c)
    if "finite_limits" in cat._scratch:
        assert cat._scratch["finite_limits"] == finite_limits(copy)


def test_a_shared_category_holds_only_derived_data():
    """Instances drawn in one scope share categories; the only things kept on
    them are sieve lattices and finite limits, equal to those of an unshared
    copy."""
    with interning():
        instances = [generate_instance("site", derive_seed(3, i), Caps()) for i in range(60)]
        for inst in instances:
            cat = inst["category"]
            for c in cat.objects:
                sieve_lattice(cat, c)
        fibrations = [generate_instance("fibration", derive_seed(3, i), Caps()) for i in range(60)]
        for inst in fibrations:
            is_cartesian_fibration(inst["indexed"])
        interned = list(fincat._interned.values())
    categories = [inst["category"] for inst in instances]
    assert len({id(cat) for cat in categories}) < len(categories)
    fibers = [fib for inst in fibrations for fib in inst["indexed"].fiber.values()]
    assert len({id(fib) for fib in fibers}) < len(fibers)
    assert any("sieve_lattice" in cat._scratch for cat in interned)
    assert any("finite_limits" in cat._scratch for cat in interned)
    for cat in interned:
        assert_scratch_is_derived(cat)


def test_reports_keep_only_derived_data_on_their_categories(monkeypatch):
    """Every category a report built in its scope carries nothing but sieve
    lattices and finite limits in ``_scratch`` when the report ends."""
    kept = []
    for exp_id in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[exp_id]
        tables = []

        def snapshot(inst, caps, check=spec.check, tables=tables):
            # the report's table, which keeps every category built in its scope
            tables[:] = [fincat._interned]
            return check(inst, caps)

        monkeypatch.setitem(EXPERIMENTS, exp_id, replace(spec, check=snapshot))
        run_experiment(exp_id, 0, Caps(instances=4))
        kept.extend(tables[0].values())
    assert any("sieve_lattice" in cat._scratch for cat in kept)
    assert any("finite_limits" in cat._scratch for cat in kept)
    for cat in kept:
        assert_scratch_is_derived(cat)
