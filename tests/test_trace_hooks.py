"""Every function the benchmark's tracer patches is reached from the CLI.

perfbench/tracing.py replaces functions on the names their calling
modules look up.  A caller that binds such a name locally, or stops
calling it, never reaches the shim, and the per-layer metric it feeds
reads 0 with no error.  This runs all four subcommands in-process under
the tracer and checks that each patched function was entered.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from strongeq import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("strongeq.cli", "strongeq.simplify", "strongeq.discovery")
# no CLI path builds an iso canonical form since `verify --modulo-iso`
# walks orderly; its shim is patched and never entered
UNREACHED = {"strongeq.discovery.iso_canonical_form"}
# one program taking each of the five rewrites once, T8 and T9 included
SIMPLIFY_INPUT = (
    "a :- not a. a :- not b. b :- not a. c :- c. "
    "e :- d. f :- not d. f :- not e. "
    "h :- g, not k. g;h :- not k.\n"
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def run(*argv: str) -> int:
    return cli.main(list(argv))


def test_every_patched_function_is_reached(tracing, tmp_path, capsys):
    modules = [sys.modules[name] for name in MODULES]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    registry = dict(cli.CONDITIONS)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    reached: Counter = Counter()

    def counted(key, shim):
        def call(*args, **kwargs):
            reached[key] += 1
            return shim(*args, **kwargs)

        return call

    try:
        # wrap each shim the tracer put in place; restore() puts the
        # originals back over these wrappers too
        patched = []
        for m in modules:
            for k, v in list(vars(m).items()):
                if before[m.__name__, k] is not v:
                    key = f"{m.__name__}.{k}"
                    patched.append(key)
                    setattr(m, k, counted(key, v))
        for name, (shape, shim, canonical_only) in list(cli.CONDITIONS.items()):
            assert shim is not registry[name][1], name
            key = f"CONDITIONS.{name}"
            patched.append(key)
            cli.CONDITIONS[name] = (shape, counted(key, shim), canonical_only)

        p1 = tmp_path / "p1.lp"
        p1.write_text("a :- b. c :- not a.\n")
        p2 = tmp_path / "p2.lp"
        p2.write_text("a :- c. c :- not a.\n")
        messy = tmp_path / "messy.lp"
        messy.write_text(SIMPLIFY_INPUT)
        assert run("answersets", str(p1)) == 0
        assert run("check-se", str(p1), str(p2)) == 1
        assert run("simplify", str(messy), "--verify") == 0
        for name, (shape, _shim, canonical_only) in registry.items():
            argv = ["verify", "--shape", f"{shape.k},{shape.m},{shape.n}", "--atoms", "1",
                    "--condition", name]
            if canonical_only:
                argv.append("--canonical")
            assert run(*argv) == (0 if name != "s_implies" else 1), name
    finally:
        restore()
    capsys.readouterr()

    assert all(cli.CONDITIONS[name][1] is registry[name][1] for name in registry)
    assert {"strongeq.cli.parse_program", "strongeq.simplify.cond_2_1_0",
            "strongeq.discovery.rule_mask", "CONDITIONS.cond_0_2_2"} <= set(patched)
    assert UNREACHED <= set(patched)
    missed = sorted(key for key in patched if not reached[key] and key not in UNREACHED)
    assert not missed, f"patched but never entered: {missed}"
    # the per-layer records agree: every span name recorded, every leaf
    # tally but the exempt one nonzero
    assert {s[0] for s in tracer.spans} >= {
        "syntax.parse", "oracle.se", "semantics.answer_sets", "simplify.simplify",
        "simplify.verify", "discovery.test_conjecture", "discovery.ht_pair_masks"}
    idle = sorted(name for name, (calls, _s) in tracer.leaf.items() if not calls)
    assert idle == ["syntax.iso"]
    assert tracer.counts["step.T8"] == 1 and tracer.counts["step.T9"] == 1
