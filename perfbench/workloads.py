"""The benchmark's three workloads, as passes of operations on finsite.

An operation is one call into finsite (a report, a minimisation or a CLI
request) plus a function that turns its result into an answer that later
versions of finsite must reproduce.  Every pass of a workload runs the same
operations, in an order drawn from the benchmark seed, so that any two runs
measure the same work.

finsite is always reached through module attributes (``experiments.run_...``,
never ``from ... import``) so that the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from finsite import bundles, cli, experiments, fibration, generate

# The seeds every fuzz workload runs, each experiment at default caps except
# `instances`.  The answers for exactly these are recorded in expected.json.
FUZZ_SEEDS = tuple(range(10))
SHEAF_ORACLE_IDS = ("sheafify-soundness", "continuity-cross-check")
SHEAF_ORACLE_INSTANCES = 5
SITE_KERNEL_INSTANCES = 15
# Instances per fuzz seed and kind handed to shrink_site / shrink_fibration.
SHRINK_INSTANCES = 5
# Seeded Giraud sites written as bundle files for cli-requests.
CLI_BUNDLES = 300
CHECK_KINDS = ("comorphism", "continuous", "flat", "dense")


@dataclass(frozen=True)
class Outcome:
    items: int
    skipped: int
    answer: str


@dataclass(frozen=True)
class Op:
    key: str
    # Which experiment (or "minimise", "request") the time is charged to.
    group: str
    call: Callable[[], object]
    finish: Callable[[object], Outcome]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Fuzz workloads


def _report_op(exp_id: str, seed: int, instances: int) -> Op:
    caps = generate.Caps(instances=instances)

    def finish(report) -> Outcome:
        return Outcome(report.checked + report.skipped, report.skipped, _sha(report.canonical_text()))

    return Op(
        "{}@{}".format(exp_id, seed),
        exp_id,
        lambda: experiments.run_experiment(exp_id, seed, caps),
        finish,
    )


def has_proper_cover(category, topology) -> bool:
    """Some object has a covering sieve other than its maximal sieve."""
    return any(len(sieve) < len(category.into(c)) for c in category.objects for sieve in topology.covers[c])


def _shrink_op(kind: str, seed: int, index: int) -> Op:
    instance_seed = generate.derive_seed(seed, index)

    def call():
        inst = generate.generate_instance(kind, instance_seed, generate.Caps())
        if kind == "site":
            if not has_proper_cover(inst["category"], inst["topology"]):
                return None
            return generate.shrink_site(inst["category"], inst["topology"], has_proper_cover)
        cix, top = inst["indexed"], inst["base_topology"]
        if not has_proper_cover(cix.base, top):
            return None
        return generate.shrink_fibration(cix, top, lambda c, t: has_proper_cover(c.base, t))

    def finish(result) -> Outcome:
        if result is None:
            return Outcome(1, 0, "-")
        if kind == "site":
            cat, top = result
            doc = {"category": bundles.category_to_json(cat), "topology": bundles.topology_to_json(top, "c")}
        else:
            cix, top = result
            doc = {
                "base": bundles.category_to_json(cix.base),
                "fibers": {c: bundles.category_to_json(cix.fiber[c]) for c in cix.base.objects},
                "topology": bundles.topology_to_json(top, "base"),
            }
        return Outcome(1, 0, _sha(bundles.dumps_canonical(doc)))

    return Op("shrink-{}@{}.{}".format(kind, seed, index), "minimise", call, finish)


class FuzzWorkload:
    def __init__(self, ops: list[Op]):
        self.ops = ops

    def pass_ops(self, index: int, rng: random.Random) -> list[Op]:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops


def sheaf_oracles(workdir: str) -> FuzzWorkload:
    return FuzzWorkload(
        [_report_op(e, s, SHEAF_ORACLE_INSTANCES) for s in FUZZ_SEEDS for e in SHEAF_ORACLE_IDS]
    )


def site_kernel(workdir: str) -> FuzzWorkload:
    ids = [e for e in experiments.all_experiment_ids() if e not in SHEAF_ORACLE_IDS]
    ops = [_report_op(e, s, SITE_KERNEL_INSTANCES) for s in FUZZ_SEEDS for e in ids]
    ops += [
        _shrink_op(kind, s, i) for s in FUZZ_SEEDS for kind in ("site", "fibration") for i in range(SHRINK_INSTANCES)
    ]
    return FuzzWorkload(ops)


# ---------------------------------------------------------------------------
# CLI requests


def giraud_site_doc(seed: int) -> dict:
    """A bundle document: a seeded fibration X over a site (base, J), its
    total category with the projection p, a topology G on the total (the
    Giraud topology of J or a random one) and a presheaf P on the base."""
    inst = generate.generate_instance("fibration", generate.derive_seed(seed, 0), generate.Caps())
    cix, base_top = inst["indexed"], inst["base_topology"]
    total = fibration.grothendieck(cix)
    rng = random.Random(generate.derive_seed(seed, 1))
    if rng.random() < 0.5:
        total_top = fibration.giraud_topology(cix, base_top, total)
    else:
        total_top = generate.gen_topology(rng, total.total)
    ws = bundles.Workspace()
    ws.categories = {"base": cix.base, "total": total.total}
    for c in cix.base.objects:
        ws.categories.setdefault("fiber_" + c, cix.fiber[c])
    ws.functors = {"p": total.projection}
    for f, fn in cix.restriction.items():
        if not cix.base.is_identity(f):
            ws.functors["restrict_" + f] = fn
    ws.indexed = {"X": cix}
    ws.topologies = {"J": base_top, "G": total_top}
    ws.presheaves = {"P": generate.gen_presheaf(rng, cix.base, 3)}
    return bundles.workspace_to_json(ws)


def salt_names(node, salt: str, depth: int = 0):
    """Prefix every name in a bundle document with ``salt``.

    Keys at depth 0 (sections) and 2 (entry fields) are format keywords;
    every other key and every string value is a name.  A common prefix keeps
    the sort order of names, so the answers do not change.
    """
    if isinstance(node, dict):
        keep = depth in (0, 2)
        return {(k if keep else salt + k): salt_names(v, salt, depth + 1) for k, v in node.items()}
    if isinstance(node, list):
        return [salt_names(v, salt, depth + 1) for v in node]
    return salt + node


def _request_answer(kind: str, code: int, text: str, salt: str) -> str:
    """The parts of a reply that survive renaming of elements and names."""
    lines = text.replace(salt, "").splitlines()
    if kind == "giraud":
        body = []
        for line in lines:
            head, _, members = line.partition(": ")
            body.append([head, sorted(m for m in members.strip("{}").split(", ") if m)])
        body.sort()
    elif kind == "sheafify":
        body = []
        for line in lines:
            if line.startswith("value "):
                head, _, members = line.partition(": ")
                body.append([head, len([m for m in members.strip("{}").split(", ") if m])])
        body.sort()
    else:
        body = lines[:1]
    return _sha(json.dumps([code, body]))[:16]


def _request_op(bundle: int, kind: str, argv: list[str], salt: str) -> Op:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exit:  # argparse rejecting the command line
                code = exit.code
        return code, out.getvalue()

    def finish(reply) -> Outcome:
        code, text = reply
        return Outcome(1, 0, _request_answer(kind, code, text, salt))

    return Op("{}/{}".format(bundle, kind), "request", call, finish)


class CliWorkload:
    """Closed loop, one client: each request starts when the previous ends.

    Every request reads its own bundle file, written before the pass with
    names no other request in the run uses, so caches kept across calls
    cannot hit: as in real use, where each request is a fresh process.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.docs = [giraud_site_doc(b) for b in range(CLI_BUNDLES)]

    def pass_ops(self, index: int, rng: random.Random) -> list[Op]:
        ops = []
        for b, doc in enumerate(self.docs):
            requests = [("giraud", ["giraud"], ["X", "J"])]
            requests += [(kind, ["check", kind], ["p", "G", "J"]) for kind in CHECK_KINDS]
            requests.append(("sheafify", ["sheafify"], ["P", "J"]))
            for kind, command, names in requests:
                salt = "~{}.{}.{}~".format(index, b, kind)
                path = os.path.join(self.workdir, "site{}-{}.bundle".format(b, kind))
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(salt_names(doc, salt), fh)
                argv = command + [path] + [salt + name for name in names]
                ops.append(_request_op(b, kind, argv, salt))
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    "sheaf-oracles": sheaf_oracles,
    "site-kernel": site_kernel,
    "cli-requests": CliWorkload,
}
