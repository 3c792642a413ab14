"""Acceptance criteria, one test per criterion.

Every criterion is property-based over the shipped corpus and at least 500
fuzzed instances per experiment at default caps (base <= 4 objects, fibers
<= 4 objects).  Tolerances are exact: 0 failures.  Each test prints one
pass/fail line; run with -s (or read captured output) for the summary.
"""
from __future__ import annotations

import hashlib
import json
import os

import pytest

from finsite.experiments import all_experiment_ids, run_experiment
from finsite.generate import Caps

SEED = 0
CAPS = Caps()  # instances=500, base_objects<=4, fiber_objects<=4
# At most 5% of the fuzzed instances of any experiment may be skipped.
SKIP_CEILING = CAPS.instances // 20
_REPORTS: dict[str, object] = {}
# sha256 of each report's canonical text, written by record_acceptance_digests.py
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "acceptance_digests.json")


def _report(experiment_id: str):
    if experiment_id not in _REPORTS:
        _REPORTS[experiment_id] = run_experiment(experiment_id, SEED, CAPS)
    return _REPORTS[experiment_id]


def _assert_skips_bounded(report):
    assert report.skipped <= SKIP_CEILING, (report.experiment, dict(report.skips))


def _criterion(number: int, title: str, experiment_ids: tuple[str, ...]):
    reports = [_report(e) for e in experiment_ids]
    ok = all(r.ok for r in reports)
    checked = sum(r.checked for r in reports)
    skipped = sum(r.skipped for r in reports)
    failures = sum(len(r.failures) for r in reports)
    elapsed = sum(r.elapsed for r in reports)
    print(
        "ACCEPT {:02d} {}: {} (checked={}, skipped={}, failures={}, {:.1f}s)".format(
            number, title, "PASS" if ok else "FAIL", checked, skipped, failures, elapsed
        )
    )
    for r in reports:
        assert r.checked >= CAPS.instances - r.skipped
        _assert_skips_bounded(r)
        if r.failures:
            pytest.fail(
                "criterion {:02d} failed in {}: {}".format(number, r.experiment, r.failures[0].message)
            )


def test_criterion_01_topology_soundness():
    _criterion(1, "topology soundness and saturation idempotence", ("topology-soundness",))


def test_criterion_02_giraud_minimality():
    _criterion(2, "comorphism topologies are the up-set of Giraud", ("def-2.5-minimality",))


def test_criterion_03_projection_continuity():
    _criterion(3, "Giraud projections continuous comorphisms; fibration morphisms continuous", ("thm-2.3-continuity",))


def test_criterion_04_reflect_cartesian():
    _criterion(4, "pullback projections reflect cartesian arrows", ("prop-2.5-reflect",))


def test_criterion_05_adjoint_inverse_image_agreement():
    _criterion(5, "adjoint inverse images match the comma-colimit oracle", ("prop-2.7-agreement",))


def test_criterion_06_direct_image_continuity_and_comorphisms():
    _criterion(
        6,
        "direct-image projections: continuous over continuous, comorphism over comorphism",
        ("prop-3.4-continuous", "prop-4.2-comorphism"),
    )


def test_criterion_07_dense_projections():
    _criterion(7, "direct-image projections along dense morphisms are dense", ("prop-4.6-dense",))


def test_criterion_08_base_change_composition():
    _criterion(8, "base-change comparisons compose (table-exact / natural iso)", ("prop-4.4-compose",))


def test_criterion_09_sheaf_engine():
    _criterion(9, "sheafification soundness and unit universal property", ("sheafify-soundness",))
    report = _report("sheafify-soundness")
    assert any(note.startswith("universal-property-instances") for note in report.notes)
    # the worked two-element example collapses to the constant singleton sheaf
    from finsite import corpus
    from finsite.presheaf import sheafify, validate_presheaf

    w = corpus.walk2()
    worked = validate_presheaf(w, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}})
    result = sheafify(worked, corpus.sier(w))
    assert all(len(result.sheaf.values[c]) == 1 for c in w.objects)


def test_criterion_10_continuity_cross_validation():
    _criterion(10, "continuity implies bounded-sheaf preservation", ("continuity-cross-check",))


def test_criterion_11_induced_topology_containment():
    _criterion(11, "induced topologies contain the Giraud topology", ("prop-4.12-containment",))


def test_criterion_12_determinism():
    caps = Caps(instances=60)
    for exp_id in all_experiment_ids():
        first = run_experiment(exp_id, 1, caps)
        second = run_experiment(exp_id, 1, caps)
        assert first.canonical_text() == second.canonical_text(), exp_id
    print("ACCEPT 12 determinism: PASS ({} experiments byte-identical)".format(len(all_experiment_ids())))


def test_supporting_experiments_all_pass():
    """The remaining suite ids also run at acceptance scale with 0 failures."""
    numbered = {
        "topology-soundness",
        "def-2.5-minimality",
        "thm-2.3-continuity",
        "prop-2.5-reflect",
        "prop-2.7-agreement",
        "prop-3.4-continuous",
        "prop-4.2-comorphism",
        "prop-4.6-dense",
        "prop-4.4-compose",
        "sheafify-soundness",
        "continuity-cross-check",
        "prop-4.12-containment",
    }
    for exp_id in all_experiment_ids():
        if exp_id in numbered:
            continue
        report = _report(exp_id)
        print(
            "SUPPORT {}: {} (checked={}, skipped={}, failures={}, {:.1f}s)".format(
                exp_id,
                "PASS" if report.ok else "FAIL",
                report.checked,
                report.skipped,
                len(report.failures),
                report.elapsed,
            )
        )
        assert report.ok, report.failures[0].message if report.failures else ""
        _assert_skips_bounded(report)


def test_reports_match_the_acceptance_digests():
    """Every acceptance report is byte-identical to the recorded one: its
    canonical text hashes to the digest in ``acceptance_digests.json``."""
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert sorted(recorded) == sorted(all_experiment_ids())
    changed = [
        exp_id
        for exp_id, digest in recorded.items()
        if hashlib.sha256(_report(exp_id).canonical_text().encode("utf-8")).hexdigest() != digest
    ]
    assert changed == [], "canonical reports changed: {}".format(", ".join(changed))
