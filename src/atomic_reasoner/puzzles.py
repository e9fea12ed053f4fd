"""Logic-grid puzzle generation and an independent brute-force solver.

The solver enumerates permutation assignments attribute by attribute; it is
the oracle against which generated puzzles are checked for solution
uniqueness.  Its enumeration order (attributes in schema order, each
attribute's permutations in ``itertools.permutations`` order) is part of its
contract, because ``limit`` cuts the search there.  Every permutation's
house of each value is precomputed once, at import, together with one
bitmask per (value, house) of the permutations that put that value there.
Clues naming a single attribute prefilter that attribute's permutations by
ANDing such masks before the search, and every other clue becomes an
integer comparison of two house indices.

The generator shuffles the clues that hold for a planted solution and finds
the shortest unique prefix of them by galloping (prefix lengths 1, 2, 4, ...)
and then bisecting, which works because a longer prefix never has more
solutions.  It then prunes that prefix greedily, skipping the trial without
its last clue, which the search already found not unique.  Every uniqueness
test goes through the module's ``brute_solve``.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import permutations
from typing import ClassVar, Iterator, Optional, Union

from .errors import GenerationExhausted, TooLarge
from .model import GridSchema

MAX_HOUSES = 5
MAX_ATTEMPTS = 20  # sampled solutions per puzzle before GenerationExhausted

# Assignment: attribute name -> tuple of values, index = house - 1.
Assignment = dict[str, tuple[str, ...]]

# Value pools; every pool holds MAX_HOUSES values.  The first attribute is
# always the person's name so attribute-linkage clues read naturally.
ATTRIBUTE_POOLS: list[tuple[str, tuple[str, ...]]] = [
    ("name", ("Arnold", "Eric", "Peter", "Alice", "Carol")),
    ("book genre", ("romance", "mystery", "science fiction", "fantasy", "biography")),
    ("lunch", ("grilled cheese", "pizza", "spaghetti", "stew", "soup")),
    ("smoothie", ("desert", "watermelon", "cherry", "lime", "banana")),
    ("pet", ("cat", "dog", "fish", "bird", "hamster")),
    ("color", ("red", "green", "blue", "yellow", "purple")),
]


# --- clues ------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FixedPosition:
    kind: ClassVar[str] = "FixedPosition"
    attribute: str
    value: str
    house: int  # 1-based

    def holds(self, assignment: Assignment) -> bool:
        return assignment[self.attribute][self.house - 1] == self.value

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def render(self, index: int) -> str:
        return f"{index}. The {self.attribute} {self.value!r} is in house {self.house}."


@dataclass(frozen=True, slots=True)
class LeftOf:
    kind: ClassVar[str] = "LeftOf"
    attribute_a: str
    value_a: str
    attribute_b: str
    value_b: str

    def holds(self, assignment: Assignment) -> bool:
        return (
            assignment[self.attribute_a].index(self.value_a)
            < assignment[self.attribute_b].index(self.value_b)
        )

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_a, self.attribute_b)

    def render(self, index: int) -> str:
        return (
            f"{index}. The person with {self.attribute_a} {self.value_a!r} is somewhere "
            f"to the left of the person with {self.attribute_b} {self.value_b!r}."
        )


@dataclass(frozen=True, slots=True)
class Adjacent:
    kind: ClassVar[str] = "Adjacent"
    attribute_a: str
    value_a: str
    attribute_b: str
    value_b: str

    def holds(self, assignment: Assignment) -> bool:
        return (
            abs(
                assignment[self.attribute_a].index(self.value_a)
                - assignment[self.attribute_b].index(self.value_b)
            )
            == 1
        )

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_a, self.attribute_b)

    def render(self, index: int) -> str:
        return (
            f"{index}. The person with {self.attribute_a} {self.value_a!r} and the person "
            f"with {self.attribute_b} {self.value_b!r} are next to each other."
        )


@dataclass(frozen=True, slots=True)
class SameHouse:
    kind: ClassVar[str] = "SameHouse"
    attribute_a: str
    value_a: str
    attribute_b: str
    value_b: str

    def holds(self, assignment: Assignment) -> bool:
        return (
            assignment[self.attribute_a].index(self.value_a)
            == assignment[self.attribute_b].index(self.value_b)
        )

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_a, self.attribute_b)

    def render(self, index: int) -> str:
        if self.attribute_a == "name":
            return (
                f"{index}. {self.value_a} is the person with "
                f"{self.attribute_b} {self.value_b!r}."
            )
        return (
            f"{index}. The person with {self.attribute_a} {self.value_a!r} is the person "
            f"with {self.attribute_b} {self.value_b!r}."
        )


# A clue's JSON object names its class as its ``kind``.
Clue = Union[FixedPosition, LeftOf, Adjacent, SameHouse]


# --- brute-force solver -------------------------------------------------------------

def _adjacent(h: int, q: int) -> bool:
    return abs(h - q) == 1


# Each two-sided clue kind as (a test of the house index of side a against
# that of side b, the same test with the sides swapped).
_CLUE_TESTS = {
    LeftOf: (operator.lt, operator.gt),
    Adjacent: (_adjacent, _adjacent),
    SameHouse: (operator.eq, operator.eq),
}

# A permutation of the value indices 0..n-1 (index = house index) and its
# inverse (index = value index).
_Placement = tuple[tuple[int, ...], tuple[int, ...]]

# Per house count, every placement, in ``itertools.permutations`` order.
_PLACEMENTS: dict[int, list[_Placement]] = {
    n: [(perm, tuple(perm.index(v) for v in range(n))) for perm in permutations(range(n))]
    for n in range(1, MAX_HOUSES + 1)
}


def _placement_masks(placements: list[_Placement]) -> list[list[int]]:
    """at[v][h]: a bitmask over ``placements`` with bit i set when placement
    i puts value v in house h."""
    at = [[0] * len(placements[0][0]) for _ in placements[0][0]]
    for i, (_, houses) in enumerate(placements):
        for v, h in enumerate(houses):
            at[v][h] |= 1 << i
    return at


_AT: dict[int, list[list[int]]] = {n: _placement_masks(placements) for n, placements in _PLACEMENTS.items()}


def validate_clues(schema: GridSchema, clues: list[Clue]) -> None:
    """Raise ``ValueError`` unless every attribute holds ``schema.houses``
    distinct values and every clue names a schema attribute, one of that
    attribute's values and (``FixedPosition``) a house in ``1..houses``."""
    values = dict(schema.attributes)
    if len(values) != len(schema.attributes):
        raise ValueError("grid schema repeats an attribute")
    for attr, pool in values.items():
        if len(set(pool)) != len(pool) or len(pool) != schema.houses:
            raise ValueError(f"attribute {attr!r} needs {schema.houses} distinct values")
    for clue in clues:
        if isinstance(clue, FixedPosition):
            sides = [(clue.attribute, clue.value)]
            if type(clue.house) is not int or not 1 <= clue.house <= schema.houses:
                raise ValueError(f"{clue!r}: house outside 1..{schema.houses}")
        elif type(clue) in _CLUE_TESTS:
            sides = [(clue.attribute_a, clue.value_a), (clue.attribute_b, clue.value_b)]
        else:
            raise ValueError(f"unknown clue type {type(clue).__name__}")
        for attr, value in sides:
            if attr not in values:
                raise ValueError(f"{clue!r}: unknown attribute {attr!r}")
            if value not in values[attr]:
                raise ValueError(f"{clue!r}: {value!r} is not a value of {attr!r}")


def brute_solve(
    schema: GridSchema,
    clues: list[Clue],
    limit: Optional[int] = None,
) -> list[Assignment]:
    """All assignments consistent with the clues, by exhaustive enumeration.

    Places one attribute's permutation at a time, in schema order, trying
    each attribute's permutations in ``itertools.permutations`` order; that
    enumeration order is the contract, since ``limit`` stops the search
    after that many solutions (uniqueness checks use limit=2).  Each
    permutation's house of every value is precomputed.  Clues naming one
    attribute decide that attribute's candidates before the search, as a
    bitmask over its permutations: a ``FixedPosition`` clue ANDs in the mask
    of its (value, house), and a two-sided clue whose sides share an
    attribute ANDs in the OR of its two values' house masks over the house
    pairs its test accepts; the set bits, lowest first, are the candidates
    in ``itertools.permutations`` order.  Every other clue compares the
    house indices of its two sides once the later of its attributes is
    placed.  Raises ``ValueError`` for a clue that does not fit the schema
    (see ``validate_clues``)."""
    if schema.houses > MAX_HOUSES:
        raise TooLarge(f"brute force capped at {MAX_HOUSES} houses")
    validate_clues(schema, clues)
    depth_of = {attr: depth for depth, (attr, _) in enumerate(schema.attributes)}
    index_of = {attr: {value: i for i, value in enumerate(pool)} for attr, pool in schema.attributes}

    # fixed[d]: (value index, house index) pairs attribute d must place;
    # pairs[d]: (test, value index, value index) clues within attribute d;
    # staged[d]: (test, value index of d, earlier depth e, value index of e)
    # clues between d and an earlier attribute, tested once d is placed.
    fixed: list[list] = [[] for _ in schema.attributes]
    pairs: list[list] = [[] for _ in schema.attributes]
    staged: list[list] = [[] for _ in schema.attributes]
    for clue in clues:
        if isinstance(clue, FixedPosition):
            fixed[depth_of[clue.attribute]].append((index_of[clue.attribute][clue.value], clue.house - 1))
            continue
        test_a, test_b = _CLUE_TESTS[type(clue)]
        side_a = (depth_of[clue.attribute_a], index_of[clue.attribute_a][clue.value_a], test_a)
        side_b = (depth_of[clue.attribute_b], index_of[clue.attribute_b][clue.value_b], test_b)
        (depth, v, test), (other, w, _) = (side_a, side_b) if side_a[0] >= side_b[0] else (side_b, side_a)
        if depth == other:
            pairs[depth].append((test, v, w))
        else:
            staged[depth].append((test, v, other, w))

    # The permutations of each attribute that pass its one-attribute clues, in
    # order: the AND of one mask per clue, whose bits bin(mask)[:1:-1] lists
    # lowest first.
    placements, at = _PLACEMENTS[schema.houses], _AT[schema.houses]
    house_pairs = [(h, q) for h in range(schema.houses) for q in range(schema.houses)]
    candidates = []
    for depth in range(len(schema.attributes)):
        mask = (1 << len(placements)) - 1
        for v, h in fixed[depth]:
            mask &= at[v][h]
        for test, v, w in pairs[depth]:
            accepted = 0
            for h, q in house_pairs:
                if test(h, q):
                    accepted |= at[v][h] & at[w][q]
            mask &= accepted
        candidates.append([placed for placed, bit in zip(placements, bin(mask)[:1:-1]) if bit == "1"])

    # Depth-first search: pending[d] yields the permutations of attribute d
    # that fit the ones chosen for attributes 0..d-1.
    last = len(schema.attributes) - 1
    chosen: list[_Placement] = [((), ())] * len(schema.attributes)
    pending = [_fitting(candidates[0], staged[0], chosen)]
    solutions: list[Assignment] = []
    while pending:
        depth = len(pending) - 1
        placed = next(pending[depth], None)
        if placed is None:
            pending.pop()
            continue
        chosen[depth] = placed
        if depth < last:
            pending.append(_fitting(candidates[depth + 1], staged[depth + 1], chosen))
            continue
        solutions.append({
            attr: tuple(pool[i] for i in perm)
            for (attr, pool), (perm, _) in zip(schema.attributes, chosen)
        })
        if limit is not None and len(solutions) >= limit:
            break
    return solutions


def _fitting(candidates: list[_Placement], staged: list, chosen: list[_Placement]) -> Iterator[_Placement]:
    """The candidates that pass every staged clue against the permutations
    already chosen for earlier attributes."""
    for perm, houses in candidates:
        for test, v, earlier, w in staged:
            if not test(houses[v], chosen[earlier][1][w]):
                break
        else:
            yield perm, houses


def assignment_to_grid(schema: GridSchema, assignment: Assignment) -> dict[int, dict[str, str]]:
    attrs = schema.attribute_names
    return {
        house: {attr: assignment[attr][house - 1] for attr in attrs}
        for house in range(1, schema.houses + 1)
    }


# --- generation ---------------------------------------------------------------------

def _candidate_clues(schema: GridSchema, solution: Assignment, rng: random.Random) -> list[Clue]:
    attrs = schema.attribute_names
    candidates: list[Clue] = []
    for attr in attrs:
        for house in range(1, schema.houses + 1):
            candidates.append(FixedPosition(attr, solution[attr][house - 1], house))
    for i, attr_a in enumerate(attrs):
        for attr_b in attrs[i:]:
            for value_a in schema.values_for(attr_a):
                for value_b in schema.values_for(attr_b):
                    if attr_a == attr_b and value_a == value_b:
                        continue
                    pos_a = solution[attr_a].index(value_a)
                    pos_b = solution[attr_b].index(value_b)
                    if attr_a != attr_b and pos_a == pos_b:
                        candidates.append(SameHouse(attr_a, value_a, attr_b, value_b))
                    if pos_a < pos_b:
                        candidates.append(LeftOf(attr_a, value_a, attr_b, value_b))
                    if abs(pos_a - pos_b) == 1 and (attr_a, value_a) < (attr_b, value_b):
                        candidates.append(Adjacent(attr_a, value_a, attr_b, value_b))
    rng.shuffle(candidates)
    return candidates


def _is_unique(schema: GridSchema, clues: list[Clue]) -> bool:
    return len(brute_solve(schema, clues, limit=2)) == 1


def _shortest_unique_prefix(schema: GridSchema, candidates: list[Clue]) -> Optional[int]:
    """The smallest ``k`` for which ``candidates[:k]`` has a unique solution,
    or None if the whole list has more than one.

    Every candidate holds in the planted solution, so a longer prefix never
    has more solutions and uniqueness is monotone in ``k``.  The search
    gallops (k = 1, 2, 4, ..., capped at the list's length) to the first
    unique prefix, then bisects between it and the last prefix found not
    unique: about 2*log2(k) oracle calls where adding one clue at a time
    takes k.  The empty prefix is never unique, since at least two houses
    admit more than one assignment."""
    low, high = 0, 1  # candidates[:low] is not unique; candidates[:high] is tried next
    while not _is_unique(schema, candidates[:high]):
        if high >= len(candidates):
            return None
        low, high = high, min(2 * high, len(candidates))
    while high - low > 1:
        middle = (low + high) // 2
        if _is_unique(schema, candidates[:middle]):
            high = middle
        else:
            low = middle
    return high


def generate_puzzle(seed: int, houses: int, attributes: int) -> tuple[GridSchema, list[Clue], Assignment]:
    """Deterministic puzzle with a unique solution and a minimal clue set.

    The chosen clues are the shortest prefix of the shuffled candidates that
    the oracle finds unique (``_shortest_unique_prefix``, a galloping
    search), then greedily pruned: every surviving clue is necessary, so
    dropping any one of them re-admits a second solution.  The pruning pass
    never tries dropping the prefix's last clue: what remains is a subset of
    the one-shorter prefix, which the search found not unique."""
    if not 2 <= houses <= MAX_HOUSES:
        raise ValueError(f"houses must be in [2, {MAX_HOUSES}]")
    if not 1 <= attributes <= 4:
        raise ValueError("attributes must be in [1, 4]")

    rng = random.Random(seed)
    schema = GridSchema(
        houses=houses,
        attributes=tuple(
            (name, tuple(values[:houses])) for name, values in ATTRIBUTE_POOLS[:attributes]
        ),
    )
    for _ in range(MAX_ATTEMPTS):
        solution: Assignment = {
            attr: tuple(rng.sample(schema.values_for(attr), houses))
            for attr in schema.attribute_names
        }
        candidates = _candidate_clues(schema, solution, rng)
        k = _shortest_unique_prefix(schema, candidates)
        if k is None:
            continue  # this solution never became unique; resample

        minimal = candidates[:k]
        for clue in candidates[:k - 1]:
            trial = [c for c in minimal if c != clue]
            if _is_unique(schema, trial):
                minimal = trial
        return schema, minimal, solution
    raise GenerationExhausted(f"no unique puzzle after {MAX_ATTEMPTS} attempts (seed={seed})")


def render_statement(schema: GridSchema, clues: list[Clue]) -> str:
    lines = [
        f"There are {schema.houses} houses, numbered 1 to {schema.houses} from left "
        "to right, as seen from across the street. Each house is occupied by a "
        "different person. Each house has a unique attribute for each of the "
        "following characteristics:",
        "",
    ]
    for attr, values in schema.attributes:
        listed = ", ".join(f"`{v}`" for v in values)
        lines.append(f"- Each house has a unique {attr}: {listed}")
    lines += ["", "## Clues:", ""]
    for index, clue in enumerate(clues, start=1):
        lines.append(clue.render(index))
    return "\n".join(lines)
