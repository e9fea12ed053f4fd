"""Shipped scripted session recordings usable as deterministic end-to-end
fixtures: each bundles a task, a tag-keyed backend script, and the gold
answer."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from . import bench as bench_mod
from .backends import ScriptedBackend
from .bench import Task
from .errors import parse_json, read_text

CASE_NAMES = ("case1", "case2")


@dataclass
class CaseFixture:
    name: str
    task: Task
    script: dict

    def backend(self) -> ScriptedBackend:
        """A fresh scripted backend positioned at the start of the recording."""
        return ScriptedBackend(self.script)


def load_case(name: str) -> CaseFixture:
    if name not in CASE_NAMES:
        raise ValueError(f"unknown case {name!r}; available: {CASE_NAMES}")
    path = resources.files("atomic_reasoner").joinpath(f"data/cases/{name}.json")
    record = parse_json(read_text(path), str(path))
    return CaseFixture(name=name, task=bench_mod.task_from_record(record), script=record["script"])
