"""Record serialization (traces, task records, clues and answer schemas)
through one codec compiled once per type, whose reader checks each JSON value
as it reads it; run statistics, SFT-corpus export, and discrete entropy
diagnostics over action selection."""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import cycle
from typing import Callable, Iterable, NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

from . import model
from .errors import DimensionMismatch, InvalidDistribution, ParseError, parse_json
from .model import AtomicAction, AtomicTree

PROB_TOLERANCE = 1e-9
TRACE_FORMAT_VERSION = 1


# --- entropy diagnostics --------------------------------------------------------

@dataclass
class DiscreteDistribution:
    """Finite outcome distribution: (label, probability) pairs."""

    outcomes: list[tuple[str, float]]

    def __post_init__(self):
        if not self.outcomes:
            raise InvalidDistribution("distribution needs at least one outcome")
        total = 0.0
        for _, p in self.outcomes:
            if p < 0:
                raise InvalidDistribution(f"negative probability {p}")
            total += p
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "DiscreteDistribution":
        p = 1.0 / len(labels)
        return cls([(label, p) for label in labels])


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits; 0 log 0 := 0."""
    total = 0.0
    for _, p in dist.outcomes:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def weighted_step_entropy(selection_row: Sequence[float], per_action_entropies: Sequence[float]) -> float:
    """Expected per-step entropy when each action j (with its own output
    entropy E_j) is selected with probability r_j: sum_j r_j * E_j."""
    if len(selection_row) != len(per_action_entropies):
        raise DimensionMismatch(
            f"{len(selection_row)} selection probabilities vs "
            f"{len(per_action_entropies)} entropies"
        )
    if any(p < 0 for p in selection_row):
        raise InvalidDistribution("negative selection probability")
    if abs(sum(selection_row) - 1.0) > PROB_TOLERANCE:
        raise InvalidDistribution("selection row must sum to 1")
    if any(e < 0 for e in per_action_entropies):
        raise InvalidDistribution("entropies must be non-negative")
    return sum(r * e for r, e in zip(selection_row, per_action_entropies))


# --- run statistics ---------------------------------------------------------------

@dataclass
class TraceStats:
    rounds: int
    action_histogram: dict[str, int]
    chains: int
    backtracks: int
    revisions: int
    check_errors: int


def trace_stats(tree: AtomicTree) -> TraceStats:
    """Counts computed purely from the trace."""
    histogram = {action.value: 0 for action in AtomicAction}
    revisions = 0
    check_errors = 0
    for node in tree.nodes.values():
        histogram[node.action.value] += 1
        if node.revised:
            revisions += 1
        check_errors += sum(1 for r in node.check_reports if r.is_error)
    return TraceStats(
        rounds=model.round_count(tree),
        action_histogram=histogram,
        chains=len(tree.chains),
        backtracks=max(0, len(tree.chains) - 1),
        revisions=revisions,
        check_errors=check_errors,
    )


# --- record serialization ------------------------------------------------------------

# What a reader's message calls each JSON type.
_JSON_NAMES = {
    str: "a string", int: "an integer", bool: "true or false",
    type(None): "null", list: "a list", dict: "an object",
}


class _Codec(NamedTuple):
    write: Callable  # value -> JSON
    reads: dict  # JSON type -> reader: (JSON of that type, where, path in the record[, key]) -> value


def _read(codec: _Codec, data, where: str, path: str, *key):
    """The value ``codec`` reads from the JSON ``data`` at ``path``, by the
    reader for its JSON type (a bool is no int).  Raises ``ParseError`` from
    ``where`` if it has none."""
    read = codec.reads.get(type(data))
    if read is None:
        expected = " or ".join(_JSON_NAMES[kind] for kind in codec.reads)
        raise ParseError(f"{path} is not {expected}" if path else f"not {expected}", where)
    return read(data, where, path, *key)


@functools.cache
def _codec(tp, keyed: bool = False) -> _Codec:
    """The JSON form of the type ``tp``, built once, in one dispatch on it.
    A dataclass is an object of its fields; a field its class names in
    ``optional`` is written only when set (truthy) and read as its default
    when absent; a keyed dataclass (a node or chain, in an object keyed by
    its id) does not repeat its id.  A member of a union of dataclasses is
    its own object with a leading ``"kind"``, an enum member its value, a
    tuple a list: ``tuple[X, ...]`` of any length, ``tuple[X, Y]`` of two."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union and all(is_dataclass(arg) for arg in args):
        members, text = {cls.kind: _codec(cls) for cls in args}, _codec(str)

        def read(data, where, path, *_):
            prefix = f"{path}." if path else ""
            if "kind" not in data:
                raise ParseError(f"{prefix}kind is missing", where)
            kind = _read(text, data["kind"], where, prefix + "kind")
            if kind not in members:
                raise ParseError(f"{prefix}kind {kind!r} is unknown", where)
            return members[kind].reads[dict](data, where, path)

        return _Codec(lambda value: {"kind": value.kind, **members[value.kind].write(value)}, {dict: read})
    if is_dataclass(tp):
        hints, optional = get_type_hints(tp), getattr(tp, "optional", ())
        items = [(f.name, _codec(hints[f.name])) for f in fields(tp) if not (keyed and f.name == "id")]

        def write(value):
            return {
                name: item.write(v) for name, item in items if (v := getattr(value, name)) or name not in optional
            }

        def read(data, where, path, key=None):
            prefix = f"{path}." if path else ""
            values = {}
            for name, item in items:
                if name in data:
                    values[name] = _read(item, data[name], where, prefix + name)
                elif name not in optional:
                    raise ParseError(f"{prefix}{name} is missing", where)
            return tp(**values) if key is None else tp(id=key, **values)

        return _Codec(write, {dict: read})
    if origin is Union:  # Optional[X], or a union of plain types: read by the member of the value's JSON type
        item = _codec(args[0])
        return _Codec(
            lambda value: None if value is None else item.write(value),
            {kind: read for arg in args for kind, read in _codec(arg).reads.items()},
        )
    if origin in (list, tuple):  # one type for every item (list[X], tuple[X, ...]) or one per place
        items = [_codec(arg) for arg in args if arg is not ...]

        def read(data, where, path, *_):
            if len(items) != 1 and len(data) != len(items):
                raise ParseError(f"{path or 'value'} does not hold {len(items)} items", where)
            return origin(_read(item, v, where, f"{path}[{i}]") for i, (item, v) in enumerate(zip(cycle(items), data)))

        return _Codec(lambda value: [item.write(v) for item, v in zip(cycle(items), value)], {list: read})
    if origin is dict:
        item = _codec(args[1], keyed=True)

        def read(data, where, path, *_):
            return {key: _read(item, v, where, f"{path}.{key}" if path else key, key) for key, v in data.items()}

        return _Codec(lambda value: {key: item.write(v) for key, v in value.items()}, {dict: read})
    if issubclass(tp, enum.Enum):
        return _Codec(lambda value: value.value, {str: lambda data, *_: tp(data)})
    return _Codec(lambda value: value, {tp: lambda data, *_: data})


def to_json(tp, value):
    """The ``tp`` value ``value`` as JSON."""
    return _codec(tp).write(value)


def from_json(tp, data, where: str):
    """The ``tp`` value ``to_json`` wrote as ``data``.  Raises ``ParseError``
    from ``where`` unless ``data`` has that form and names known kinds."""
    return _read(_codec(tp), data, where, "")


# A trace document's fields beside its tree's, read before the tree:
# ``format_version`` first, so a document of another version says so.
@dataclass
class _Version:
    format_version: int


@dataclass
class _ChainOrder:
    chain_order: list[str]
    active_chain: str


def tree_to_json(tree: AtomicTree) -> dict:
    """A trace document: the tree's fields, ``active_chain_id`` named
    ``active_chain``, beside ``format_version`` and ``chain_order``."""
    document = dict(to_json(AtomicTree, tree), format_version=TRACE_FORMAT_VERSION, chain_order=list(tree.chains))
    document["active_chain"] = document.pop("active_chain_id")
    return document


def serialize_trace(tree: AtomicTree) -> str:
    """Canonical document: sorted keys, fixed indentation, trailing newline.
    Equal trees serialize identically."""
    return json.dumps(tree_to_json(tree), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def deserialize_trace(document: str, source: str = "trace") -> AtomicTree:
    """The tree a trace document holds.  Raises ``ParseError`` from
    ``source`` unless the document has this ``format_version`` (read first)
    and the form ``tree_to_json`` writes, and every chain's nodes, parent
    step and the active chain exist, so no reader of the tree can fail on it."""
    data = parse_json(document, source)
    version = from_json(_Version, data, source).format_version
    if version != TRACE_FORMAT_VERSION:
        raise ParseError(f"unknown format_version {version}", source)
    order = from_json(_ChainOrder, data, source)
    data["active_chain_id"] = order.active_chain
    try:
        tree = from_json(AtomicTree, data, source)
    except ValueError as exc:
        raise ParseError(f"malformed trace document: {exc}", source) from exc
    if sorted(order.chain_order) != sorted(tree.chains):
        raise ParseError("chain_order does not name each chain once", source)
    tree.chains = {cid: tree.chains[cid] for cid in order.chain_order}
    earlier: set[str] = set()
    for cid, chain in tree.chains.items():
        if not all(nid in tree.nodes for nid in chain.node_ids):
            raise ParseError(f"chain {cid} holds a node the trace lacks", source)
        if chain.parent is not None:
            parent_id, index = chain.parent
            # Only an earlier chain can be a parent, so parents form no cycle.
            if parent_id not in earlier or not 0 <= index < len(tree.chains[parent_id].node_ids):
                raise ParseError(f"chain {cid} branches from no step of an earlier chain", source)
        earlier.add(cid)
    if tree.active_chain_id not in tree.chains:
        raise ParseError(f"active_chain {tree.active_chain_id!r} is not a chain", source)
    return tree


# --- SFT export -------------------------------------------------------------------

@dataclass
class SftRecord:
    instruction: str
    reasoning: str
    answer: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.instruction.strip() and self.reasoning.strip() and self.answer.strip()):
            raise ValueError("instruction, reasoning, and answer must be non-empty")


@dataclass
class ScoredTrace:
    tree: AtomicTree
    correct: bool
    suite: str = ""


def to_sft_records(traces: Iterable[ScoredTrace], filter: str = "correct_only") -> list[SftRecord]:
    """Export terminated, scored traces as instruction/reasoning/answer
    records.  ``filter`` is 'all' or 'correct_only'.  The reasoning is the
    terminating chain's ancestry, root to tip, one line per step; revised
    content already replaced the originals in place."""
    if filter not in ("all", "correct_only"):
        raise ValueError("filter must be 'all' or 'correct_only'")
    records = []
    for scored in traces:
        tree = scored.tree
        if tree.terminated is None:
            continue
        if filter == "correct_only" and not scored.correct:
            continue
        reasoning = model.render_steps(model.active_path(tree))
        texts = (tree.problem.statement, reasoning, tree.terminated.final_answer)
        if not all(text.strip() for text in texts):
            continue
        records.append(
            SftRecord(
                instruction=tree.problem.statement,
                reasoning=reasoning,
                answer=tree.terminated.final_answer,
                meta={
                    "suite": scored.suite,
                    "rounds": model.round_count(tree),
                    "correct": scored.correct,
                },
            )
        )
    return records


def sft_records_to_jsonl(records: Iterable[SftRecord]) -> str:
    lines = [json.dumps(asdict(record), sort_keys=True, ensure_ascii=False) for record in records]
    return "\n".join(lines) + ("\n" if lines else "")
