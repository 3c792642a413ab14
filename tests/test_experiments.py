import hashlib
import json
import os

import pytest

from finsite.bundles import category_to_json, dumps_canonical, topology_to_json
from finsite.deciders import Verdict
from finsite.experiments import (
    EXPERIMENTS,
    coverage_gaps,
    run_experiment,
)
from finsite.generate import (
    Caps,
    GenerationError,
    KINDS,
    derive_seed,
    generate_instance,
    shrink_fibration,
    shrink_site,
)
from finsite.sieves import CapExceeded, is_topology


SMALL = Caps(instances=12)
EXPECTED_ANSWERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")
# The instances cap at which the benchmark records each workload's reports.
GOLDEN_INSTANCES = {"site-kernel": 15, "sheaf-oracles": 5}


def test_every_in_scope_result_is_covered():
    assert coverage_gaps() == ()


def test_unknown_experiment_id_is_rejected():
    with pytest.raises(KeyError):
        run_experiment("prop-0.0")


def test_unknown_instance_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown instance kind"):
        generate_instance("nonsense", 0, SMALL)


SITE_FUNCTOR_KEYS = {"functor", "source_topology", "target_topology"}
INSTANCE_KEYS = {
    "site": {"category", "topology"},
    "fibration": {"indexed", "base_topology"},
    "site-functor": SITE_FUNCTOR_KEYS,
    "dense-pair": SITE_FUNCTOR_KEYS,
}


@pytest.mark.parametrize("kind", KINDS)
def test_generate_instance_is_valid_and_deterministic(kind):
    first = generate_instance(kind, 5, SMALL)
    second = generate_instance(kind, 5, SMALL)
    assert first.keys() == second.keys() == INSTANCE_KEYS[kind]
    if "category" in first:
        assert first["category"] == second["category"]
        ok, witness = is_topology(first["category"], first["topology"].covers)
        assert ok, witness
    if "functor" in first:
        assert first["functor"].obj_map == second["functor"].obj_map


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiments_pass_at_small_scale(exp_id):
    report = run_experiment(exp_id, 3, SMALL)
    assert report.ok, report.failures[0].message if report.failures else ""
    assert report.checked > 0


def test_reports_are_reproducible_byte_for_byte():
    for exp_id in ("comma-kernel", "def-2.5-minimality", "prop-4.2-comorphism"):
        first = run_experiment(exp_id, 9, SMALL)
        second = run_experiment(exp_id, 9, SMALL)
        assert first.canonical_text() == second.canonical_text()


def test_report_contains_machine_readable_trailer():
    report = run_experiment("comma-kernel", 2, SMALL)
    text = report.canonical_text()
    assert "--- trailer ---" in text
    trailer = text.split("--- trailer ---", 1)[1]
    fields = dict(
        line.split("=", 1) for line in trailer.strip().splitlines()
    )
    assert fields["id"] == "comma-kernel"
    assert fields["seed"] == "2"
    assert fields["failures"] == "0"
    assert "instances=12" in fields["caps"]


def test_elapsed_is_not_part_of_the_canonical_report():
    report = run_experiment("comma-kernel", 2, SMALL)
    assert "elapsed" not in report.canonical_text()


def test_shrinking_preserves_failure():
    inst = generate_instance("site", derive_seed(4, 2), Caps())
    cat, top = inst["category"], inst["topology"]
    if len(cat.objects) < 2:
        inst = generate_instance("site", derive_seed(4, 7), Caps())
        cat, top = inst["category"], inst["topology"]

    def fails(c, t):
        # synthetic failure: any site with at least one object
        return len(c.objects) >= 1

    small_cat, small_top = shrink_site(cat, top, fails)
    assert len(small_cat.objects) == 1
    assert fails(small_cat, small_top)
    ok, _ = is_topology(small_cat, small_top.covers)
    assert ok


def test_shrinking_respects_the_failure_predicate():
    inst = generate_instance("site", derive_seed(8, 3), Caps())
    cat, top = inst["category"], inst["topology"]

    def fails(c, t):
        # only sites containing every original object keep failing
        return set(cat.objects) <= set(c.objects)

    small_cat, _ = shrink_site(cat, top, fails)
    assert set(small_cat.objects) == set(cat.objects)


def test_failure_records_render_with_minimized_instance():
    # run a doctored experiment through the internal loop machinery
    from finsite.experiments import _Run

    run = _Run(seed=0, caps=Caps(instances=3))

    def make(n):
        return generate_instance("fibration", n, Caps())

    def check(inst):
        return "synthetic failure" if len(inst["indexed"].base.objects) >= 1 else None

    run.loop(make, check)
    assert [f.instance for f in run.failures] == ["seed {}".format(derive_seed(0, i)) for i in range(3)]
    for failure in run.failures:
        doc = json.loads(failure.minimized)
        assert doc.keys() == {"base", "fibers", "topology"}
        assert len(doc["base"]["objects"]) == 1


def _fibration_with_two_base_objects():
    for index in range(50):
        inst = generate_instance("fibration", derive_seed(0, index), Caps())
        if len(inst["indexed"].base.objects) >= 2:
            return inst
    raise AssertionError("no fibration over two base objects among the first 50 seeds")


def test_minimisation_surfaces_a_crash_on_a_shrunk_candidate():
    # a check that fails on the original fibration and crashes on every
    # smaller one: the crash is an error, not a candidate that "no longer fails"
    from finsite.experiments import _Run

    original = _fibration_with_two_base_objects()
    run = _Run(seed=0, caps=Caps(instances=1))

    def check(inst):
        if inst["indexed"] is original["indexed"]:
            return "synthetic failure"
        raise RuntimeError("kernel crash while shrinking")

    with pytest.raises(RuntimeError, match="kernel crash while shrinking"):
        run.loop(lambda n: original, check)


def test_skips_are_counted_by_reason_outside_the_canonical_report():
    from finsite.experiments import SkipInstance, _Run

    run = _Run(seed=0, caps=Caps(instances=6))
    fibration = _fibration_with_two_base_objects()
    errors = (GenerationError("too small"), CapExceeded("too big"), GenerationError("too small"))
    raised_by_make = {derive_seed(0, i): err for i, err in enumerate(errors)}

    def make(n):
        if n in raised_by_make:
            raise raised_by_make[n]
        return fibration

    def check(inst):
        raise SkipInstance()

    run.loop(make, check)
    assert run.skips == {"GenerationError": 2, "CapExceeded": 1, "SkipInstance": 3}
    assert run.skipped == 6 and run.checked == 0

    report = run_experiment("def-2.5-minimality", 0, Caps(instances=40))
    reasons = dict(report.skips)
    assert list(reasons) == ["GenerationError", "CapExceeded", "SkipInstance"]
    assert sum(reasons.values()) == report.skipped
    assert "GenerationError" not in report.canonical_text()


def test_noted_passes_count_only_for_checked_instances_not_shrink_candidates():
    # a check that fails on the original fibration and passes, noted, on
    # every smaller one: the shrinker runs it many times, the note count stays 0
    from finsite.experiments import NOTED, _Run

    original = _fibration_with_two_base_objects()
    run = _Run(seed=0, caps=Caps(instances=2))
    calls = []

    def check(inst):
        calls.append(inst)
        return "synthetic failure" if inst["indexed"] is original["indexed"] else NOTED

    run.loop(lambda n: original, check)
    assert len(calls) > 2
    assert run.noted == 0
    assert run.checked == 2 and len(run.failures) == 2

    run.check("corpus", "corpus", NOTED)
    run.loop(lambda n: _fibration_with_two_base_objects(), lambda inst: NOTED)
    assert run.noted == 3
    assert run.checked == 5 and len(run.failures) == 2


def test_reports_match_the_recorded_digests():
    """Every report the benchmark records as ``<experiment>@<seed>`` is
    reproduced byte for byte: its canonical text hashes to the recorded
    sha256.  The file is only read."""
    with open(EXPECTED_ANSWERS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    wrong = []
    for workload, instances in GOLDEN_INSTANCES.items():
        caps = Caps(instances=instances)
        for key, digest in recorded[workload].items():
            if key.startswith("shrink-"):
                continue
            experiment, _, seed = key.rpartition("@")
            text = run_experiment(experiment, int(seed), caps).canonical_text()
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
                wrong.append(key)
    assert len(wrong) == 0, wrong


def has_proper_cover(category, topology):
    return any(len(sieve) < len(category.into(c)) for c in category.objects for sieve in topology.covers[c])


def shrink_answer(kind, instance_seed):
    """The benchmark's answer for one shrink: the sha256 of the canonical
    document of the shrunk instance, or "-" when it has no proper cover."""
    inst = generate_instance(kind, instance_seed, Caps())
    if kind == "site":
        cat, top = inst["category"], inst["topology"]
        if not has_proper_cover(cat, top):
            return "-"
        cat, top = shrink_site(cat, top, has_proper_cover)
        doc = {"category": category_to_json(cat), "topology": topology_to_json(top, "c")}
    else:
        cix, top = inst["indexed"], inst["base_topology"]
        if not has_proper_cover(cix.base, top):
            return "-"
        cix, top = shrink_fibration(cix, top, lambda c, t: has_proper_cover(c.base, t))
        doc = {
            "base": category_to_json(cix.base),
            "fibers": {c: category_to_json(cix.fiber[c]) for c in cix.base.objects},
            "topology": topology_to_json(top, "base"),
        }
    return hashlib.sha256(dumps_canonical(doc).encode("utf-8")).hexdigest()


def test_shrinks_match_the_recorded_answers():
    """Every ``shrink-<kind>@<seed>.<index>`` answer the benchmark records is
    reproduced: shrink_site and shrink_fibration keep an instance with a
    proper cover, from the generated site or fibration at that seed and
    index.  The file is only read."""
    with open(EXPECTED_ANSWERS, encoding="utf-8") as fh:
        recorded = {k: v for k, v in json.load(fh)["site-kernel"].items() if k.startswith("shrink-")}
    assert len(recorded) == 100
    wrong = []
    for key, answer in recorded.items():
        kind, _, where = key[len("shrink-"):].partition("@")
        seed, _, index = where.partition(".")
        if shrink_answer(kind, derive_seed(int(seed), int(index))) != answer:
            wrong.append(key)
    assert wrong == []


def _needs_one_base_object(top_fun, base_fun, src, tgt):
    return len(src.base.objects) < 2, ("synthetic",)


def test_a_thm23_failure_in_the_morphism_is_not_reported_as_a_shrunk_fibration(monkeypatch):
    # the failure lives in the morphism alone, so a shrunk copy of the
    # morphism's source base cannot reproduce it and must not be reported
    from finsite import experiments

    monkeypatch.setattr(experiments, "is_morphism_of_fibrations", _needs_one_base_object)
    report = run_experiment("thm-2.3", 0, Caps(instances=20))
    fuzzed = [f for f in report.failures if f.label.startswith("fuzz")]
    assert fuzzed
    for failure in fuzzed:
        assert failure.minimized == failure.instance
        assert "fibers" not in failure.minimized


def test_a_thm23_failure_names_the_seed_that_rebuilds_it(monkeypatch):
    from finsite import experiments

    monkeypatch.setattr(experiments, "is_morphism_of_fibrations", _needs_one_base_object)
    caps = Caps(instances=20)
    report = run_experiment("thm-2.3", 0, caps)
    fuzzed = [f for f in report.failures if f.label.startswith("fuzz")]
    assert fuzzed
    spec = EXPERIMENTS["thm-2.3-continuity"]
    for failure in fuzzed:
        index = int(failure.label[len("fuzz["):-1])
        assert failure.instance == "seed {}".format(derive_seed(0, index))
        n = int(failure.instance.split()[1])
        assert spec.check(spec.make(n, caps), caps) == failure.message


def test_a_structure_functor_failure_is_named_by_its_seed_not_a_shrunk_fibration(monkeypatch):
    # the check reads the adjunction and the target topology too, so a shrunk
    # copy of the indexed category alone would replay nothing
    from finsite import experiments

    monkeypatch.setattr(
        experiments, "is_morphism_of_sites", lambda site: Verdict(len(site.functor.source.objects) < 2, "injected")
    )
    report = run_experiment("structure-functor-sites", 0, Caps(instances=20))
    fuzzed = [f for f in report.failures if f.label.startswith("fuzz")]
    assert fuzzed
    for failure in fuzzed:
        assert "fibers" not in failure.minimized
        assert failure.minimized == failure.instance
        assert failure.instance.startswith("seed ")
