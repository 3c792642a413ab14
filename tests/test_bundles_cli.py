import argparse
import ast
import contextlib
import gc
import importlib.util
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import finsite
from finsite import cli, corpus, experiments, fibration, sieves
from finsite.bundles import (
    SECTIONS,
    BundleError,
    Workspace,
    load_bundle,
    workspace_to_json,
)
from finsite.cli import main
from finsite.deciders import SiteFunctor, is_continuous, is_dense_morphism
from finsite.fibration import validate_indexed
from finsite.fincat import build_category, full_subcategory, identity_functor, terminal_category, validate_functor
from finsite.presheaf import representable, sheaf_targets, sheafify, unit_universal_property
from finsite.sieves import induced_image_topology, saturate, trivial_topology


ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "src", "finsite", "data")
WALK2_BUNDLE = os.path.join(DATA, "walk2.bundle")
CORPUS_BUNDLE = os.path.join(DATA, "corpus.bundle")


def save_bundle(ws: Workspace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workspace_to_json(ws), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_shipped_walk2_bundle_loads(walk2, sier, two_point):
    ws = load_bundle(WALK2_BUNDLE)
    assert ws.categories["walk2"] == walk2
    assert ws.topologies["sier"] == sier
    assert ws.indexed["twopoint"].fiber == two_point.fiber


def test_shipped_bundles_match_the_programmatic_corpus(tmp_path):
    ws = corpus.corpus_workspace()
    path = tmp_path / "fresh.bundle"
    save_bundle(ws, str(path))
    assert load_bundle(str(path)) == load_bundle(CORPUS_BUNDLE)


@pytest.mark.parametrize("bundle", [WALK2_BUNDLE, CORPUS_BUNDLE], ids=os.path.basename)
def test_loading_and_saturating_build_no_sieve_lattice(bundle):
    ws = load_bundle(bundle)
    for top in ws.topologies.values():
        assert saturate(top.base, {c: [top.least[c]] for c in top.base.objects}) == top
    categories = list(ws.categories.values()) + [top.base for top in ws.topologies.values()]
    assert not any("sieve_lattice" in cat._scratch for cat in categories)


def test_inducing_and_deciding_density_build_no_sieve_lattice():
    retract = corpus.retract()
    sub = full_subcategory(retract, ["r"])
    inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, sub, retract)
    top = corpus.retract_topology(retract)
    induced = induced_image_topology(inclusion, top)
    assert is_dense_morphism(SiteFunctor(inclusion, induced, top)).ok
    assert not any("sieve_lattice" in cat._scratch for cat in (sub, retract))


def test_round_trip_is_identity():
    ws = load_bundle(CORPUS_BUNDLE)
    assert load_bundle(workspace_to_json(ws)) == ws


def test_workspaces_differing_in_one_restriction_functor_are_unequal():
    # same base, fibers and restriction keys: only the functor along u differs
    w, two = corpus.walk2(), corpus.discrete(("p", "q"))

    def over_walk2(obj_map):
        ids = {two.identity[x]: two.identity[obj_map[x]] for x in two.objects}
        along_u = validate_functor(obj_map, ids, two, two)
        return Workspace(indexed={"E": validate_indexed(w, {"a": two, "b": two}, {"u": along_u})})

    fixed = over_walk2({"p": "p", "q": "q"})
    assert fixed == over_walk2({"p": "p", "q": "q"})
    assert fixed != over_walk2({"p": "q", "q": "p"})


def test_missing_composite_is_located():
    doc = {
        "categories": {
            "chain": {
                "objects": ["x", "y", "z"],
                "arrows": {"f": ["x", "y"], "g": ["y", "z"], "h": ["x", "z"]},
                "compose": [],
            }
        }
    }
    with pytest.raises(BundleError, match="categories/chain"):
        load_bundle(doc)


def test_dangling_reference_is_located():
    doc = {
        "categories": {},
        "functors": {"f": {"source": "missing", "target": "missing", "objects": {}, "arrows": {}}},
    }
    with pytest.raises(BundleError, match="functors/f.*dangling"):
        load_bundle(doc)


WALK2_CATEGORY = {"objects": ["a", "b"], "arrows": {"u": ["a", "b"]}}
MALFORMED = {
    "unknown-arrow": (
        {"categories": {"w": WALK2_CATEGORY}, "topologies": {"J": {"category": "w", "covers": {"b": [["v"]]}}}},
        "topologies/J: family member v is not an arrow",
    ),
    "object-image-not-an-object": (
        {
            "categories": {"w": WALK2_CATEGORY},
            "functors": {"F": {"source": "w", "target": "w", "objects": {"a": "z", "b": "b"}, "arrows": {"u": "u"}}},
        },
        "functors/F: object a maps outside the target",
    ),
    "covers-as-list": (
        {"categories": {"w": WALK2_CATEGORY}, "topologies": {"J": {"category": "w", "covers": [["u"]]}}},
        "topologies/J: malformed tables",
    ),
    "values-as-list": (
        {"categories": {"w": WALK2_CATEGORY}, "presheaves": {"P": {"category": "w", "values": ["x"]}}},
        "presheaves/P: malformed tables",
    ),
    "section-as-number": ({"categories": 3}, "/: malformed tables"),
    "compose-as-number": (
        {"categories": {"w": dict(WALK2_CATEGORY, compose=3)}},
        "categories/w: malformed tables",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_bundle_is_a_located_input_error(name, tmp_path, capsys):
    doc, message = MALFORMED[name]
    with pytest.raises(BundleError, match="^" + message):
        load_bundle(doc)
    path = tmp_path / "malformed.bundle"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


def test_parse_error_is_reported(tmp_path):
    path = tmp_path / "broken.bundle"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BundleError, match="parse error"):
        load_bundle(str(path))


def test_identity_composites_are_autofilled():
    doc = {
        "categories": {
            "w": {
                "objects": ["a", "b"],
                "arrows": {"u": ["a", "b"]},
                "compose": [],
            }
        }
    }
    ws = load_bundle(doc)
    assert ws.categories["w"].compose("u", "id_a") == "u"


# section -> (field, section it names): the references an entry makes
REFERENCE_FIELDS = {
    "categories": (),
    "functors": (("source", "categories"), ("target", "categories")),
    "topologies": (("category", "categories"),),
    "indexed": (("base", "categories"), ("fibers", "categories"), ("restrictions", "functors")),
    "naturals": (("source", "functors"), ("target", "functors")),
    "presheaves": (("category", "categories"),),
}


def referenced_entries(doc, section, name):
    """(section, name) of an entry and of every entry it references, directly
    or not, read off the JSON document."""
    found = {(section, name)}
    for field, target in REFERENCE_FIELDS[section]:
        refs = doc[section][name][field]
        for ref in refs.values() if isinstance(refs, dict) else [refs]:
            found |= referenced_entries(doc, target, ref)
    return found


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("bundle", [WALK2_BUNDLE, CORPUS_BUNDLE], ids=os.path.basename)
def test_loading_by_name_matches_the_full_load(bundle):
    doc = read_json(bundle)
    full = load_bundle(doc)
    assert load_bundle(doc, {section: list(doc.get(section, {})) for section in SECTIONS}) == full
    for section in SECTIONS:
        for name in doc.get(section, {}):
            ws = load_bundle(doc, {section: [name]})
            assert getattr(ws, section)[name] == getattr(full, section)[name]
            loaded = {(s, n) for s in SECTIONS for n in getattr(ws, s)}
            assert loaded == referenced_entries(doc, section, name)


def test_loading_by_name_skips_names_the_document_lacks():
    ws = load_bundle(WALK2_BUNDLE, {"functors": ["nope"], "topologies": ["sier"]})
    assert ws == Workspace(categories={"walk2": ws.topologies["sier"].base}, topologies=ws.topologies)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--bogus"],
    ["bogus"],
    *([command, "-h"] for command in ("validate", "giraud", "check", "sheafify", "pullback", "prop", "fuzz")),
    ["validate"],
    ["giraud", WALK2_BUNDLE],
    ["check", "comorphism", WALK2_BUNDLE],
    ["prop"],
    ["check", "bad", WALK2_BUNDLE, "p", "gir_twopoint", "sier"],
    ["check", "flat", WALK2_BUNDLE, "p", "gir_twopoint", "sier"],
    ["check", "flat", WALK2_BUNDLE, "p", "gir_twopoint", "sier", "extra"],
    ["validate", "--bogus", WALK2_BUNDLE],
    ["prop", "--seed", "x", "y"],
    ["validate", os.path.join(DATA, "no-such.bundle")],
    ["--", "validate", WALK2_BUNDLE],
    ["validate", "--", WALK2_BUNDLE],
    ["validate", WALK2_BUNDLE, "--"],
    ["prop", "--", "--seed"],
    ["prop", "bogus", "--se", "1"],
    ["check", "--he"],
    ["prop", "bogus", "--seed=2"],
    ["giraud", "-hx"],
    ["prop", "bogus", "--seed"],
    ["check", "-h", "flat"],
    ["fuzz", "--al", "--caps", "bogus=1"],
    ["fuzz", "--caps", "instances=1"],
]


def run_cli_exit(run, args, capsys):
    """``run(args)`` as (exit code, stdout, stderr), argparse's SystemExit
    turned into its exit code."""
    try:
        code = run(args)
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_main(argv):
    """``main`` as it ran when every call parsed with the full parser."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (cli.InputError, cli.StructureError, cli.CapExceeded) as err:
        sys.stderr.write("error: {}\n".format(err))
        return 2


@pytest.mark.parametrize("args", CLI_CASES, ids=lambda args: " ".join(map(os.path.basename, args)) or "(none)")
def test_cli_matches_the_full_parser(args, monkeypatch, capsys):
    expected = run_cli_exit(full_parser_main, args, capsys)
    built = []
    full_parser = cli.build_parser

    def spy():
        built.append(True)
        return full_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run_cli_exit(main, args, capsys) == expected
    # the full parser once for every line the binder declines, and never otherwise
    assert len(built) == (cli._bind(args) is None)


# words that argparse reads as options, separators or numbers, every choice,
# a word no command accepts and a bundle path
BIND_WORDS = [
    "",
    "-",
    "--",
    "-h",
    "-1",
    "--seed",
    *sorted({c for _, _, args in cli.COMMANDS.values() for opts in args.values() for c in opts.get("choices", ())}),
    "bogus",
    WALK2_BUNDLE,
]


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[name][2]
    return [name, *draw(st.lists(st.sampled_from(BIND_WORDS), max_size=len(arguments) + 1))]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_bind_gives_the_full_parsers_namespace_or_declines(argv):
    bound = cli._bind(argv)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    if bound is not None:
        del parsed["command"]
        assert vars(bound) == parsed
    elif all(not arg.startswith("-") for arg in cli.COMMANDS[argv[0]][2]):
        # a line of plain words is declined only when argparse rejects it
        assert parsed is None or any(word.startswith("-") for word in argv[1:])


def load_perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module, listed in ``sys.modules`` while
    the test runs."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def parsers_built(monkeypatch):
    """The ``prog`` of every argparse parser built while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return built


def test_every_benchmark_request_is_bound(tmp_path, monkeypatch, parsers_built):
    workloads = load_perfbench_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "CLI_BUNDLES", 1)
    sent = []
    real_main = cli.main

    def recording_main(argv):
        sent.append(argv)
        assert cli._bind(argv) is not None
        return real_main(argv)

    monkeypatch.setattr(cli, "main", recording_main)
    for op in workloads.CliWorkload(str(tmp_path)).pass_ops(0, random.Random(0)):
        code, _ = op.call()
        assert code in (0, 1)
    shapes = sorted(tuple(argv[:2]) if argv[0] == "check" else (argv[0],) for argv in sent)
    assert shapes == sorted([("giraud",), ("sheafify",), *(("check", kind) for kind in workloads.CHECK_KINDS)])
    assert parsers_built == []


BOUND_LINES = [
    ["giraud", WALK2_BUNDLE, "twopoint", "sier"],
    ["check", "continuous", WALK2_BUNDLE, "p", "gir_twopoint", "sier"],
    ["sheafify", WALK2_BUNDLE, "twofold", "sier"],
]


def test_only_a_declined_line_builds_an_argparse_parser(parsers_built, capsys):
    for argv in BOUND_LINES:
        assert run_cli(argv, capsys)[0] == 0
    assert parsers_built == []
    for argv in (["prop", "prop-9.9"], ["fuzz"], ["giraud", "-h"]):
        run_cli_exit(main, argv, capsys)
        assert parsers_built, argv
        parsers_built.clear()


def test_cli_main_reads_sys_argv(monkeypatch, capsys):
    expected = run_cli(["validate", WALK2_BUNDLE], capsys)
    monkeypatch.setattr(sys, "argv", ["finsite", "validate", WALK2_BUNDLE])
    assert run_cli(None, capsys) == expected
    assert expected[0] == 0


def test_cli_validate(capsys):
    code, out, _ = run_cli(["validate", WALK2_BUNDLE], capsys)
    assert code == 0
    assert "ok categories/walk2" in out
    assert "ok indexed/twopoint" in out


def test_cli_validate_unreadable(tmp_path, capsys):
    path = tmp_path / "broken.bundle"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "error" in err


def test_cli_check_comorphism_true(capsys):
    code, out, _ = run_cli(
        ["check", "comorphism", WALK2_BUNDLE, "p", "gir_twopoint", "sier"], capsys
    )
    assert code == 0
    assert out.startswith("true")
    assert "trace entries: 3" in out


def test_cli_check_comorphism_false(capsys):
    code, out, _ = run_cli(
        ["check", "comorphism", WALK2_BUNDLE, "p", "trivial_total", "sier"], capsys
    )
    assert code == 1
    assert out.startswith("false")
    assert "witness" in out


def test_cli_check_unknown_name(capsys):
    code, out, err = run_cli(["check", "comorphism", WALK2_BUNDLE, "nope", "sier", "sier"], capsys)
    assert (code, out) == (2, "")
    # the known list names every functor of the document, not only those loaded
    assert err == "error: unknown functor 'nope'; known: bang, id_walk2, p, pick_a, pick_b, pick_b_bang, restrict_u\n"


BUNDLE_COMMANDS = {
    "check": ["check", "comorphism", "BUNDLE", "p", "gir_twopoint", "sier"],
    "giraud": ["giraud", "BUNDLE", "twopoint", "sier"],
    "sheafify": ["sheafify", "BUNDLE", "twofold", "sier"],
    "pullback": ["pullback", "BUNDLE", "twopoint", "pick_b"],
}


def on_bundle(command, path):
    return [str(path) if arg == "BUNDLE" else arg for arg in BUNDLE_COMMANDS[command]]


def write_walk2_variant(tmp_path, section, name, entry):
    """walk2.bundle with ``entry`` put in as ``section/name``."""
    doc = read_json(WALK2_BUNDLE)
    doc[section][name] = entry
    path = tmp_path / "variant.bundle"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# entries no command of BUNDLE_COMMANDS reaches: (section, entry, validate's error)
UNREACHED = {
    "category": ("categories", {"arrows": {}}, "categories/zz: malformed tables: no objects"),
    "dangling-functor": (
        "functors",
        {"source": "walk2", "target": "missing"},
        "functors/zz: dangling reference to category 'missing'",
    ),
    "presheaf": ("presheaves", {"category": "walk2", "values": ["x"]}, "presheaves/zz: malformed tables"),
}


@pytest.mark.parametrize("broken", sorted(UNREACHED))
def test_cli_commands_ignore_a_malformed_entry_they_never_reach(broken, tmp_path, capsys):
    section, entry, message = UNREACHED[broken]
    path = write_walk2_variant(tmp_path, section, "zz", entry)
    for command in BUNDLE_COMMANDS:
        clean = run_cli(on_bundle(command, WALK2_BUNDLE), capsys)
        assert clean[0] == 0, clean
        assert run_cli(on_bundle(command, path), capsys) == clean
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


def test_cli_validate_rejects_an_action_along_an_unknown_arrow(tmp_path, capsys):
    entry = read_json(WALK2_BUNDLE)["presheaves"]["twofold"]
    entry["actions"]["ghost"] = {"0": "*", "1": "*"}
    path = write_walk2_variant(tmp_path, "presheaves", "twofold", entry)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: presheaves/twofold: action along unknown arrow ghost")


# command -> (section, name, field, value): a malformed entry the command
# reaches through a reference of an entry it names
REACHED = {
    "check": ("categories", "twopoint_total", "arrows", {"stray": ["(y,a)", "nowhere"]}),
    "giraud": ("functors", "restrict_u", "objects", {"x0": "zz", "x1": "y"}),
    "pullback": ("categories", "disc2", "objects", ["x0"]),
    "sheafify": ("categories", "walk2", "arrows", {"u": ["a", "c"]}),
}


@pytest.mark.parametrize("command", sorted(REACHED))
def test_cli_command_reports_a_malformed_entry_it_reaches(command, tmp_path, capsys):
    section, name, field, value = REACHED[command]
    entry = dict(read_json(WALK2_BUNDLE)[section][name], **{field: value})
    path = write_walk2_variant(tmp_path, section, name, entry)
    expected = run_cli(["validate", str(path)], capsys)
    assert expected[:2] == (2, "")
    assert expected[2].startswith("error: {}/{}: ".format(section, name))
    assert run_cli(on_bundle(command, path), capsys) == expected


def test_cli_giraud_prints_trivial_total(capsys):
    code, out, _ = run_cli(["giraud", WALK2_BUNDLE, "twopoint", "trivial_walk2"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("cover")]
    # trivial base topology gives only maximal covers on the 3-object total
    assert len(lines) == 3


def test_cli_sheafify_collapses_worked_example(capsys):
    code, out, _ = run_cli(["sheafify", WALK2_BUNDLE, "twofold", "sier"], capsys)
    assert code == 0
    assert "value a: {s0}" in out
    assert "value b: {s0}" in out


def test_finsite_leaves_no_cyclic_garbage(walk2, sier, capsys):
    # with the cycle collector off, what the cycle collector then finds was
    # freed by nothing else; this holds for every module, argparse included,
    # since a bound request builds no parser
    gc.collect()
    gc.disable()
    try:
        for argv in BOUND_LINES:
            assert run_cli(argv, capsys)[0] == 0
        load_bundle(WALK2_BUNDLE)
        assert list(sheaf_targets(walk2, sier, 2))
        # the per-call search plans: composites in chain3, an idempotent
        # and an inverse pair in retract
        chain3, retract = corpus.chain3(), corpus.retract()
        assert list(sheaf_targets(chain3, corpus.chain3_topology(chain3), 2))
        targets = list(sheaf_targets(retract, corpus.retract_topology(retract), 2))
        p = representable(retract, "s")
        assert unit_universal_property(p, sheafify(p, corpus.retract_topology(retract)), targets)[0]
        assert sieves.topology_candidate_count(walk2) > 1
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({type(o).__qualname__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == []


def test_cli_pullback(capsys):
    code, out, _ = run_cli(["pullback", WALK2_BUNDLE, "twopoint", "pick_b"], capsys)
    assert code == 0
    assert "fiber *: {x0, x1}" in out


def test_cli_prop_exit_codes(capsys):
    code, out, _ = run_cli(["prop", "comma-kernel", "--seed", "7", "--caps", "instances=5"], capsys)
    assert code == 0
    assert "failures 0" in out
    code, _, err = run_cli(["prop", "prop-9.9"], capsys)
    assert code == 2
    assert "unknown experiment" in err


@pytest.mark.parametrize(
    "exp_id, caps",
    [
        ("def-2.5-minimality", "enumeration_limit=1;instances=3"),
        ("continuity-cross-check", "sheaf_budget=1;instances=3"),
        ("sheafify-soundness", "sheaf_budget=1;instances=3"),
    ],
)
def test_cli_prop_counts_a_corpus_case_that_skips(exp_id, caps, capsys):
    # the corpus case exceeds the cap as the three fuzz instances do
    code, out, err = run_cli(["prop", exp_id, "--caps", caps], capsys)
    assert code == 0
    assert "checked 0\nskipped 4\nfailures 0\n" in out
    assert "SkipInstance=4" in err


def test_cli_fuzz_requires_all(capsys):
    code, _, err = run_cli(["fuzz"], capsys)
    assert code == 2


def test_cli_fuzz_all_small(capsys):
    code, out, _ = run_cli(["fuzz", "--all", "--seed", "3", "--caps", "instances=2"], capsys)
    assert code == 0
    assert out.count("--- trailer ---") == len(experiments.EXPERIMENTS)


def child_pythonpath(environ):
    """PYTHONPATH for a child process that must import the same `finsite` as this one.

    The child runs in another directory, so every entry is made absolute: the
    directory holding the imported package first, then the caller's entries.
    Empty entries are dropped, since in the child they would name its own cwd.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    entries = [root] + [
        os.path.abspath(entry) for entry in environ.get("PYTHONPATH", "").split(os.pathsep) if entry
    ]
    return os.pathsep.join(dict.fromkeys(entries))


def test_child_pythonpath_is_absolute_and_puts_the_imported_package_first(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    assert child_pythonpath({}) == root
    assert child_pythonpath({"PYTHONPATH": ""}) == root
    extra = str(tmp_path)
    caller = os.pathsep.join(["", os.path.relpath(root), extra, ""])
    assert child_pythonpath({"PYTHONPATH": caller}).split(os.pathsep) == [root, extra]


def python_outputs_under_hash_seeds(args, hash_seeds=("1", "2")):
    """Stdout of ``python <args>`` under each PYTHONHASHSEED in ``hash_seeds``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = child_pythonpath(os.environ)
    outputs = []
    for hash_seed in hash_seeds:
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(DATA),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


IMPORT_CLI_SCRIPT = """
import sys
import finsite.cli
engine = ("finsite.experiments", "finsite.generate", "finsite.deciders", "finsite.limits")
print(sorted(name for name in engine if name in sys.modules))
sys.exit(finsite.cli.main(["prop", "prop-4.2", "--caps", "instances=2"]))
"""


def test_importing_the_cli_leaves_the_experiment_engine_unloaded():
    [out] = python_outputs_under_hash_seeds(["-c", IMPORT_CLI_SCRIPT], ("0",))
    assert out.startswith("[]\nexperiment prop-4.2-comorphism\n"), out


COLD_START_SCRIPT = """
import contextlib, io, sys
def loaded():
    return sorted(name[len("finsite."):] for name in sys.modules if name.startswith("finsite."))
def stdlib():
    return [name for name in ("dataclasses", "inspect", "json") if name in sys.modules]
import finsite
print(loaded())
from finsite import corpus
corpus.corpus_workspace()
print(loaded(), stdlib())
import finsite.cli, finsite.deciders
print(stdlib())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [finsite.cli.main(argv) for argv in {lines!r}]
print(codes, stdlib())
from finsite import fibration
print(fibration.is_cartesian_fibration(corpus.two_point()))
print("finsite.limits" in sys.modules)
""".format(lines=BOUND_LINES)


def test_cold_start_loads_only_the_modules_it_uses():
    """``import finsite`` loads no submodule, the corpus workspace loads only
    the modules it builds with, and the limit search is loaded on the first
    cartesian-fibration question.  Neither set-up, nor importing the CLI and
    the deciders, nor a bound request loads ``dataclasses`` or ``inspect``,
    and ``json`` is loaded only once a document is read."""
    [out] = python_outputs_under_hash_seeds(["-c", COLD_START_SCRIPT], ("0",))
    workspace = ["bundles", "corpus", "fibration", "fincat", "presheaf", "sieves"]
    verdict = fibration.is_cartesian_fibration(corpus.two_point())
    expected = "[]\n{} []\n[]\n[0, 0, 0] ['json']\n{}\nTrue\n".format(workspace, verdict)
    assert out == expected, out


def test_the_package_imports_only_itself_and_the_standard_library():
    """Every ``import`` and ``from`` in ``finsite/*.py`` names ``finsite``
    (relative imports included) or a standard-library module.  The files are
    parsed, not imported."""
    package = os.path.dirname(os.path.abspath(finsite.__file__))
    files = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    allowed = sys.stdlib_module_names | {"finsite"}
    outside = []
    for name in files:
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [(name, module) for module in modules if module.partition(".")[0] not in allowed]
    assert "deciders.py" in files and outside == []


def test_no_package_module_imports_an_underscore_name_from_another():
    """A name with a leading underscore is private to its ``finsite`` module:
    no other module of the package imports it.  The files are parsed, not
    imported."""
    package = os.path.dirname(os.path.abspath(finsite.__file__))
    files = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    private = []
    for name in files:
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "finsite"):
                private += [(name, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert "experiments.py" in files and private == []


def cli_outputs_under_hash_seeds(argv):
    """Stdout of ``python -m finsite.cli <argv>`` under PYTHONHASHSEED 1 and 2."""
    return python_outputs_under_hash_seeds(["-m", "finsite.cli", *argv])


# The span onto one arrow fails stability both at ({f1}, f2) and at
# ({f2}, f1); is_topology must name the same one under every hash seed.
SPAN_WITNESS_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_sieves import reference_induced_image_topology, span_onto_an_arrow
from finsite.sieves import InducedTopologyError
try:
    reference_induced_image_topology(*span_onto_an_arrow())
except InducedTopologyError as err:
    print(err.witness)
""".format(tests=os.path.dirname(os.path.abspath(__file__)))


def test_is_topology_witness_is_identical_across_hash_seeds():
    outputs = python_outputs_under_hash_seeds(["-c", SPAN_WITNESS_SCRIPT], ("0", "10", "12"))
    assert outputs == ["('stability', ('c', ('f1',), 'f2'))\n"] * 3


@pytest.mark.parametrize(
    "exp_id",
    [
        "def-2.5-minimality",
        "prop-4.6-dense",
        "sheafify-soundness",
        "continuity-cross-check",
        "thm-2.3-continuity",
        "prop-3.3-conditions",
    ],
)
def test_cli_output_is_identical_across_hash_seeds(exp_id):
    outputs = cli_outputs_under_hash_seeds(["prop", exp_id, "--seed", "11", "--caps", "instances=8"])
    for out in outputs:
        assert out.startswith("experiment {}\n".format(exp_id)), out
        assert "--- trailer ---" in out, out
    assert outputs[0] == outputs[1]


def test_cli_giraud_output_is_identical_across_hash_seeds():
    outputs = cli_outputs_under_hash_seeds(["giraud", WALK2_BUNDLE, "twopoint", "sier"])
    for out in outputs:
        # more cover lines than the 3 objects of the total: a non-maximal
        # least cover, printed with every sieve above it
        assert len([line for line in out.splitlines() if line.startswith("cover ")]) > 3, out
    assert outputs[0] == outputs[1]


def parallel_arrows(x, y):
    """Objects x and y with 17 parallel arrows x -> y: 2^17 + 1 sieves on y."""
    return build_category((x, y), {"f{:02d}".format(i): (x, y) for i in range(17)})


def save_parallel_arrow_bundle(tmp_path):
    base = parallel_arrows("x", "c")
    ws = Workspace(
        categories={"par": base},
        topologies={"triv": trivial_topology(base)},
        functors={"id": identity_functor(base)},
    )
    path = str(tmp_path / "par.bundle")
    save_bundle(ws, path)
    return base, path


def test_cli_checks_density_past_the_sieve_lattice_cap(tmp_path, capsys):
    # cover reflection reads the meet of the image covers, not every sieve on c
    base, path = save_parallel_arrow_bundle(tmp_path)
    triv = trivial_topology(base)
    expected = is_dense_morphism(SiteFunctor(identity_functor(base), triv, triv))
    assert expected.ok
    code, out, _ = run_cli(["check", "dense", path, "id", "triv", "triv"], capsys)
    assert code == 0
    assert out == "true\ntrace entries: {}\n".format(len(expected.trace))


def test_cli_checks_continuity_past_the_sieve_lattice_cap(tmp_path, capsys):
    base, path = save_parallel_arrow_bundle(tmp_path)
    triv = trivial_topology(base)
    expected = is_continuous(SiteFunctor(identity_functor(base), triv, triv))
    assert expected.ok
    code, out, _ = run_cli(["check", "continuous", path, "id", "triv", "triv"], capsys)
    assert code == 0
    assert out == "true\ntrace entries: {}\n".format(len(expected.trace))


def test_cli_giraud_refuses_a_fibre_past_the_sieve_lattice_cap(tmp_path, capsys):
    base = terminal_category()
    fibre = parallel_arrows("x", "y")
    ws = Workspace(
        categories={"one": base, "par": fibre},
        topologies={"triv": trivial_topology(base)},
        indexed={"fib": validate_indexed(base, {"*": fibre}, {})},
    )
    path = str(tmp_path / "fib.bundle")
    save_bundle(ws, path)
    code, out, err = run_cli(["giraud", path, "fib", "triv"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: more than {} sieves on (y,*)\n".format(sieves.SIEVE_LATTICE_CAP)


def test_cli_prop_accepts_short_alias(capsys):
    code, out, _ = run_cli(["prop", "prop-4.2", "--caps", "instances=3"], capsys)
    assert code == 0
    assert "experiment prop-4.2-comorphism" in out


def test_cli_caps_parse_error(capsys):
    for experiment, caps, message in [
        ("comma-kernel", "bogus=1", "unknown cap"),
        ("prop-2.5", "base_objects=0", "cap base_objects must be at least 1"),
        ("prop-2.5", "fiber_objects=0", "cap fiber_objects must be at least 1"),
        ("comma-kernel", "instances=-3", "cap instances must be at least 1"),
    ]:
        code, out, err = run_cli(["prop", experiment, "--caps", caps], capsys)
        assert code == 2, caps
        assert message in err
        assert out == ""


def test_cli_fuzz_refuses_incomplete_coverage(monkeypatch, capsys):
    # cmd_fuzz imports the experiment engine when it runs, so patch it there
    monkeypatch.setattr(experiments, "coverage_gaps", lambda: ("some-result",))
    code, _, err = run_cli(["fuzz", "--all", "--caps", "instances=1"], capsys)
    assert code == 2
    assert "refusing" in err
