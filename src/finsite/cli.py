"""Command-line surface: validate bundles, run checkers and experiments.

``validate`` loads and validates every entry of a bundle; the other bundle
commands load and validate only the entries they name and every entry those
reference.  Exit codes: 0 all assertions passed, 1 assertion failure
(witness printed), 2 input error, including an input past a search cap.  All
tabular output is sorted; two runs on the same inputs produce identical
bytes.
"""
from __future__ import annotations

import argparse
import sys

from .bundles import BundleError, Workspace, load_sections, read_document
from .fincat import StructureError
from .fibration import direct_image, giraud_topology
from .presheaf import sheafify
from .sieves import CapExceeded, Topology

# kind -> the name of its decider in ``finsite.deciders``, which ``check``
# imports when it runs
CHECK_KINDS = {
    "comorphism": "is_comorphism",
    "cover": "is_cover_preserving",
    "continuous": "is_continuous",
    "flat": "is_covering_flat",
    "site-morphism": "is_morphism_of_sites",
    "dense": "is_dense_morphism",
}


class InputError(Exception):
    pass


def _load(path: str, names=None) -> tuple[dict, Workspace]:
    """The bundle's sections and its workspace, with ``names`` loaded as in
    ``load_bundle``; the document is read once."""
    try:
        sections = read_document(path)
        return sections, load_sections(sections, names)
    except (BundleError, OSError) as err:
        raise InputError(str(err))


def _entries(path: str, *wanted) -> list:
    """The entries ``wanted``, (section, name, kind) triples, of the bundle at
    ``path``; only they and the entries they reference are loaded."""
    names: dict[str, list[str]] = {}
    for section, name, _ in wanted:
        names.setdefault(section, []).append(name)
    sections, ws = _load(path, names)
    found = []
    for section, name, kind in wanted:
        table = getattr(ws, section)
        if name not in table:
            raise InputError("unknown {} {!r}; known: {}".format(kind, name, ", ".join(sorted(sections[section]))))
        found.append(table[name])
    return found


def _print_topology(topology: Topology, out) -> None:
    """Every cover, sorted; nothing is written if a sieve lattice passes its cap."""
    lines = [
        "cover {}: {{{}}}\n".format(obj, ", ".join(sorted(sieve)))
        for obj in sorted(topology.base.objects)
        for sieve in topology.sieves(obj)
    ]
    out.write("".join(lines))


def cmd_validate(args, out) -> int:
    _, ws = _load(args.bundle)
    for section in ws._fields:
        for name in sorted(getattr(ws, section)):
            out.write("ok {}/{}\n".format(section, name))
    return 0


def cmd_giraud(args, out) -> int:
    cix, topology = _entries(
        args.bundle, ("indexed", args.indexed, "indexed category"), ("topologies", args.topology, "topology")
    )
    if topology.base != cix.base:
        raise InputError("topology {!r} does not live on the base of {!r}".format(args.topology, args.indexed))
    giraud = giraud_topology(cix, topology)
    _print_topology(giraud, out)
    return 0


def cmd_check(args, out) -> int:
    from . import deciders

    functor, src_top, tgt_top = _entries(
        args.bundle,
        ("functors", args.functor, "functor"),
        ("topologies", args.src_topology, "topology"),
        ("topologies", args.tgt_topology, "topology"),
    )
    try:
        site = deciders.SiteFunctor(functor, src_top, tgt_top)
    except StructureError as err:
        raise InputError(str(err))
    verdict = getattr(deciders, CHECK_KINDS[args.kind])(site)
    out.write("{}\n".format("true" if verdict.ok else "false"))
    if verdict.ok:
        out.write("trace entries: {}\n".format(len(verdict.trace)))
    else:
        out.write("witness: {}\n".format(verdict.witness))
    return 0 if verdict.ok else 1


def cmd_sheafify(args, out) -> int:
    presheaf, topology = _entries(
        args.bundle, ("presheaves", args.presheaf, "presheaf"), ("topologies", args.topology, "topology")
    )
    if topology.base != presheaf.base:
        raise InputError("topology and presheaf live on different categories")
    result = sheafify(presheaf, topology)
    for obj in sorted(presheaf.base.objects):
        out.write("value {}: {{{}}}\n".format(obj, ", ".join(result.sheaf.values[obj])))
    for obj in sorted(presheaf.base.objects):
        for elem in presheaf.values[obj]:
            out.write("unit {}: {} -> {}\n".format(obj, elem, result.unit[obj][elem]))
    for arrow in sorted(presheaf.base.arrows):
        if presheaf.base.is_identity(arrow):
            continue
        action = result.sheaf.action[arrow]
        for elem in result.sheaf.values[presheaf.base.tgt[arrow]]:
            out.write("action {}: {} -> {}\n".format(arrow, elem, action[elem]))
    return 0


def cmd_pullback(args, out) -> int:
    cix, functor = _entries(
        args.bundle, ("indexed", args.indexed, "indexed category"), ("functors", args.functor, "functor")
    )
    if functor.target != cix.base:
        raise InputError("functor {!r} does not land in the base of {!r}".format(args.functor, args.indexed))
    di = direct_image(cix, functor)
    for c in sorted(di.indexed.base.objects):
        fib = di.indexed.fiber[c]
        out.write("fiber {}: {{{}}}\n".format(c, ", ".join(sorted(fib.objects))))
    for name in sorted(di.q.obj_map):
        out.write("q {} -> {}\n".format(name, di.q.obj_map[name]))
    return 0


def _caps(args):
    from .generate import Caps

    try:
        return Caps.parse(args.caps or "")
    except ValueError as err:
        raise InputError(str(err))


def _skip_summary(report) -> str:
    return "skipped " + " ".join("{}={}".format(reason, n) for reason, n in report.skips)


def cmd_prop(args, out) -> int:
    from .experiments import EXPERIMENTS, all_experiment_ids, resolve_experiment_id, run_experiment

    if resolve_experiment_id(args.id) not in EXPERIMENTS:
        raise InputError("unknown experiment {!r}; known: {}".format(args.id, ", ".join(all_experiment_ids())))
    report = run_experiment(args.id, args.seed, _caps(args))
    out.write(report.canonical_text())
    sys.stderr.write("# elapsed {:.2f}s, {}\n".format(report.elapsed, _skip_summary(report)))
    return 0 if report.ok else 1


def cmd_fuzz(args, out) -> int:
    from .experiments import all_experiment_ids, coverage_gaps, run_experiment

    if not args.all:
        raise InputError("fuzz requires --all")
    gaps = coverage_gaps()
    if gaps:
        raise InputError("refusing to build a release report; uncovered: {}".format(", ".join(gaps)))
    caps = _caps(args)
    code = 0
    for exp_id in all_experiment_ids():
        report = run_experiment(exp_id, args.seed, caps)
        out.write(report.canonical_text())
        out.write("\n")
        sys.stderr.write("# {} elapsed {:.2f}s, {}\n".format(exp_id, report.elapsed, _skip_summary(report)))
        if not report.ok:
            code = 1
    return code


_SEED_CAPS = {"--seed": {"type": int, "default": 0}, "--caps": {"default": ""}}

# name -> (handler, help, arguments as name -> add_argument keywords), in help order
COMMANDS = {
    "validate": (cmd_validate, "load a bundle and validate every entry", {"bundle": {}}),
    "giraud": (
        cmd_giraud,
        "print the Giraud topology of an indexed category",
        {"bundle": {}, "indexed": {}, "topology": {}},
    ),
    "check": (
        cmd_check,
        "run a site-functor decider",
        {"kind": {"choices": sorted(CHECK_KINDS)}, "bundle": {}, "functor": {}, "src_topology": {}, "tgt_topology": {}},
    ),
    "sheafify": (
        cmd_sheafify,
        "sheafify a presheaf and print the tables",
        {"bundle": {}, "presheaf": {}, "topology": {}},
    ),
    "pullback": (
        cmd_pullback,
        "pull an indexed category back along a functor",
        {"bundle": {}, "indexed": {}, "functor": {}},
    ),
    "prop": (cmd_prop, "run one experiment and print its report", {"id": {}, **_SEED_CAPS}),
    "fuzz": (cmd_fuzz, "run every experiment (release report)", {"--all": {"action": "store_true"}, **_SEED_CAPS}),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's parser."""
    parser = argparse.ArgumentParser(prog="finsite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for arg, options in arguments.items():
            command.add_argument(arg, **options)
        command.set_defaults(fn=fn)
    return parser


def _bind(argv):
    """The namespace, less ``command``, that the full parser gives ``argv``
    when no word needs parsing: a command whose arguments are all
    positional, followed by one word per argument, none starting with ``-``
    and each among its argument's choices.  ``None`` for any other line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, arguments = COMMANDS[argv[0]]
    if len(argv) - 1 != len(arguments):
        return None
    args = argparse.Namespace(fn=fn)
    for (arg, options), word in zip(arguments.items(), argv[1:]):
        if arg.startswith("-") or word.startswith("-") or word not in options.get("choices", (word,)):
            return None
        setattr(args, arg, word)
    return args


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run its command.

    A command whose arguments are all positional, given one plain word for
    each, is bound to them directly (``_bind``).  Every other line, help,
    options and errors included, goes to the full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _bind(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (InputError, StructureError, CapExceeded) as err:
        sys.stderr.write("error: {}\n".format(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
