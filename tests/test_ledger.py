"""The request ledger: every request of grid-sized sessions, pinned by digest.

``tests/data/ledger.json`` holds, per session arm and task, the count and
sha256 of each tag's ordered request stream (``request_digests``).  The
sessions are perfbench's: 5 grid-deep and 10 grid-wide tasks answered by its
simulated model (``perfbench/simmodel.py``) at seed 1 with no model wait,
through the engine's own send pool.  The arms are the default
``SessionConfig``, ``max_chains=1``, each other ``checker_mode`` and
``max_rounds=6``: the simulated model ends every other arm on a checked
ending step, so only the round cap sends the final summary request.

A change that means to keep every request leaves the ledger as it is; one
that changes a prompt on purpose re-records it with

    PYTHONPATH=src python tests/test_ledger.py

and names the re-recording in CHANGES.md.  The test reads ``perfbench/`` and
writes nothing there.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

from atomic_reasoner import bench, prompts, router, sop
from atomic_reasoner.backends import CompletionResult

from test_router import request_digests

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LEDGER = Path(__file__).resolve().parent / "data" / "ledger.json"
TEMPLATES = Path(prompts.__file__).parent / "templates"

SEED = 1
SUITES = (("deep", "DEEP", 5), ("wide", "WIDE", 10))  # suite file, simmodel shape, tasks run
ARMS = {
    "default": router.SessionConfig(),
    "max_chains=1": router.SessionConfig(max_chains=1),
    "max_rounds=6": router.SessionConfig(max_rounds=6),
    **{
        f"checker_mode={mode}": router.SessionConfig(checker_mode=mode)
        for mode in router.CHECKER_MODES
        if mode != router.SessionConfig.checker_mode
    },
}


@functools.cache
def _simmodel():
    """``perfbench/simmodel.py``, imported without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("_ledger_simmodel", PERFBENCH / "simmodel.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class _Recorder:
    """The simulated model with no wait; lists every request it answers,
    from the session's thread and the send pool alike."""

    def __init__(self, sim):
        self.sim = sim
        self.calls = []

    def complete(self, request):
        self.calls.append(request)
        return CompletionResult(self.sim.respond([(m.role, m.content) for m in request.messages]))


@functools.cache
def _suites():
    sim = _simmodel()
    suites = []
    for name, shape, count in SUITES:
        path = PERFBENCH / "data" / f"{name}.jsonl"
        tasks, rejects = bench.load_tasks(path, "grid")
        assert not rejects
        suites.append((name, sim.SimModel(SEED, getattr(sim, shape), sim.load_records(path)), tasks[:count]))
    return suites


def sessions():
    """Each ledger session as ``(arm, key, run)``; ``run()`` sends it and
    returns its request digests."""
    registry = sop.builtin_registry()
    for arm, config in ARMS.items():
        for name, sim, tasks in _suites():
            for task in tasks:

                def run(task=task, sim=sim, config=config):
                    recorder = _Recorder(sim)
                    router.run_session(task.to_problem(), config=config, backends=recorder, sop_registry=registry)
                    return json.loads(json.dumps(request_digests(recorder.calls)))

                yield arm, f"{name}/{task.id}", run


def record() -> dict:
    ledger: dict = {}
    for arm, key, run in sessions():
        ledger.setdefault(arm, {})[key] = run()
    return ledger


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.stat().st_mtime_ns for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_ledger_request_stream_is_unchanged():
    before = _files(PERFBENCH)
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert record() == expected
    assert _files(PERFBENCH) == before


def _flipped(text: str) -> str:
    i = len(text) // 2
    return text[:i] + ("#" if text[i] != "#" else "%") + text[i + 1 :]


def test_a_one_character_edit_of_any_template_changes_the_ledger(monkeypatch):
    """Each template is run, with its middle character changed, in the first
    ledger session that loads it, and that session's entry no longer
    matches."""
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))
    original = prompts.load_template
    pending = {path.stem for path in TEMPLATES.glob("*.txt")}
    assert len(pending) == 6
    for arm, key, run in sessions():
        loaded = set()
        monkeypatch.setattr(prompts, "load_template", lambda name: loaded.add(name) or original(name))
        run()
        for name in sorted(loaded & pending):
            monkeypatch.setattr(
                prompts, "load_template", lambda n, name=name: _flipped(original(n)) if n == name else original(n)
            )
            assert run() != expected[arm][key], (name, arm, key)
            pending.discard(name)
        if not pending:
            break
    assert not pending, f"no ledger session loads {sorted(pending)}"


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {LEDGER}")
