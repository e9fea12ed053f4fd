import hashlib
import json
import math
import random
from itertools import permutations
from pathlib import Path

import pytest

from atomic_reasoner import bench, metrics, puzzles
from atomic_reasoner.errors import GenerationExhausted, ParseError, TooLarge
from atomic_reasoner.model import GridSchema
from atomic_reasoner.puzzles import Adjacent, FixedPosition, LeftOf, SameHouse

SCHEMA2 = GridSchema(
    houses=2,
    attributes=(("name", ("Arnold", "Eric")), ("pet", ("cat", "dog"))),
)


GOLDEN = Path(__file__).parent / "data" / "genpuzzles_sha256.json"


def reference_solve(schema, clues, limit=None):
    """The straightforward enumerator ``puzzles.brute_solve`` replaced, kept
    as ground truth: every clue is evaluated through ``Clue.holds``."""
    if schema.houses > puzzles.MAX_HOUSES:
        raise TooLarge(f"brute force capped at {puzzles.MAX_HOUSES} houses")
    attrs = list(schema.attribute_names)
    perms = {attr: list(permutations(schema.values_for(attr))) for attr in attrs}

    # Clues become checkable once the last attribute they mention is placed.
    stage = {i: [] for i in range(len(attrs))}
    order = {attr: i for i, attr in enumerate(attrs)}
    for clue in clues:
        stage[max(order[a] for a in clue.attributes())].append(clue)

    solutions = []

    def recurse(depth, partial):
        if depth == len(attrs):
            solutions.append(dict(partial))
            return limit is not None and len(solutions) >= limit
        attr = attrs[depth]
        for perm in perms[attr]:
            partial[attr] = perm
            if all(clue.holds(partial) for clue in stage[depth]):
                if recurse(depth + 1, partial):
                    return True
        del partial[attr]
        return False

    recurse(0, {})
    return solutions


def reference_generate(seed, houses, attributes, max_attempts=20):
    """The add-one-clue-at-a-time generator ``puzzles.generate_puzzle``
    replaced, kept as ground truth for its output and its oracle calls."""
    if not 2 <= houses <= puzzles.MAX_HOUSES:
        raise ValueError(f"houses must be in [2, {puzzles.MAX_HOUSES}]")
    if not 1 <= attributes <= 4:
        raise ValueError("attributes must be in [1, 4]")

    rng = random.Random(seed)
    schema = GridSchema(
        houses=houses,
        attributes=tuple(
            (name, tuple(values[:houses])) for name, values in puzzles.ATTRIBUTE_POOLS[:attributes]
        ),
    )
    for attempt in range(max_attempts):
        solution = {
            attr: tuple(rng.sample(schema.values_for(attr), houses))
            for attr in schema.attribute_names
        }
        candidates = puzzles._candidate_clues(schema, solution, rng)

        chosen = []
        for clue in candidates:
            chosen.append(clue)
            if len(puzzles.brute_solve(schema, chosen, limit=2)) == 1:
                break
        else:
            continue  # this solution never became unique; resample

        minimal = list(chosen)
        for clue in list(chosen):
            trial = [c for c in minimal if c != clue]
            if len(puzzles.brute_solve(schema, trial, limit=2)) == 1:
                minimal = trial
        return schema, minimal, solution
    raise GenerationExhausted(f"no unique puzzle after {max_attempts} attempts (seed={seed})")


def count_oracle_calls(generate, *args):
    """``generate(*args)`` and how many times it called ``puzzles.brute_solve``,
    counted by a wrapper patched onto the module as the benchmark does."""
    calls = 0
    original = puzzles.brute_solve

    def brute_solve(*a, **kw):
        nonlocal calls
        calls += 1
        return original(*a, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(puzzles, "brute_solve", brute_solve)
        result = generate(*args)
    return result, calls


def grid_schema(houses, attributes):
    pools = puzzles.ATTRIBUTE_POOLS[:attributes]
    return GridSchema(houses=houses, attributes=tuple((n, v[:houses]) for n, v in pools))


def random_clue(rng, schema, solution, true):
    """A clue of a random kind over random sides (possibly one attribute);
    with ``true`` it holds in ``solution``, else it is drawn blind."""
    attrs = schema.attribute_names
    while True:
        kind = rng.choice((FixedPosition, LeftOf, Adjacent, SameHouse))
        attr_a = rng.choice(attrs)
        attr_b = attr_a if rng.random() < 0.3 else rng.choice(attrs)
        value_a = rng.choice(schema.values_for(attr_a))
        value_b = rng.choice(schema.values_for(attr_b))
        if kind is FixedPosition:
            clue = FixedPosition(attr_a, value_a, rng.randint(1, schema.houses))
        else:
            clue = kind(attr_a, value_a, attr_b, value_b)
        if not true or clue.holds(solution):
            return clue


def cross_check_cases(seed, count):
    """Seeded (schema, clues) cases over 2-5 houses x 1-4 attributes: clue
    sets that hold in a hidden solution, sets with blind clues mixed in, and
    contradictory sets.  Larger grids get more clues, which keeps the
    reference's search short: a sparse 5x4 set can take it minutes."""
    rng = random.Random(seed)
    for _ in range(count):
        houses, attributes = rng.randint(2, 5), rng.randint(1, 4)
        schema = grid_schema(houses, attributes)
        solution = {a: tuple(rng.sample(schema.values_for(a), houses)) for a in schema.attribute_names}
        size = houses * attributes
        fewest = size if math.factorial(houses) ** attributes > 20_000 else size // 3
        clues = [random_clue(rng, schema, solution, true=True) for _ in range(rng.randint(fewest, 2 * size))]
        style = rng.choice(("true", "blind", "contradiction"))
        if style == "blind":
            clues += [random_clue(rng, schema, solution, true=False) for _ in range(rng.randint(1, 3))]
        elif style == "contradiction":  # two clues that cannot both hold
            attr_a, attr_b = rng.choice(schema.attribute_names), rng.choice(schema.attribute_names)
            value_a, value_b = rng.choice(schema.values_for(attr_a)), rng.choice(schema.values_for(attr_b))
            clues += [SameHouse(attr_a, value_a, attr_b, value_b), LeftOf(attr_a, value_a, attr_b, value_b)]
        rng.shuffle(clues)
        yield schema, clues


class TestClues:
    def test_semantics(self):
        assignment = {"name": ("Arnold", "Eric"), "pet": ("cat", "dog")}
        assert FixedPosition("name", "Arnold", 1).holds(assignment)
        assert not FixedPosition("name", "Arnold", 2).holds(assignment)
        assert LeftOf("name", "Arnold", "pet", "dog").holds(assignment)
        assert not LeftOf("pet", "dog", "name", "Arnold").holds(assignment)
        assert Adjacent("name", "Arnold", "pet", "dog").holds(assignment)
        assert SameHouse("name", "Eric", "pet", "dog").holds(assignment)

    def test_json_round_trip(self):
        for clue in (
            FixedPosition("name", "Eric", 2),
            LeftOf("name", "Arnold", "pet", "dog"),
            Adjacent("pet", "cat", "pet", "dog"),
            SameHouse("name", "Eric", "pet", "dog"),
        ):
            assert metrics.from_json(puzzles.Clue, metrics.to_json(puzzles.Clue, clue), "clue") == clue

    def test_unknown_clue_kind_rejected(self):
        with pytest.raises(ParseError, match="^clue: kind 'Telepathy' is unknown$"):
            metrics.from_json(puzzles.Clue, {"kind": "Telepathy"}, "clue")

    def test_bool_house_rejected(self):
        """``True == 1``: a bool house would stand for house 1."""
        with pytest.raises(ValueError, match="house outside"):
            puzzles.validate_clues(SCHEMA2, [FixedPosition("name", "Eric", True)])
        with pytest.raises(ParseError, match="house is not an integer"):
            data = {"kind": "FixedPosition", "attribute": "name", "value": "Eric", "house": True}
            metrics.from_json(puzzles.Clue, data, "clue")

    @pytest.mark.parametrize("data", [["FixedPosition"], {"kind": 5}, {"kind": "LeftOf", "attribute_a": "name"}])
    def test_clue_of_another_shape_rejected(self, data):
        with pytest.raises(ParseError):
            metrics.from_json(puzzles.Clue, data, "clue")


class TestBruteSolve:
    def test_no_clues_counts_all_permutation_products(self):
        solutions = puzzles.brute_solve(SCHEMA2, [])
        assert len(solutions) == 4  # 2! * 2!

    def test_contradictory_clues_no_solution(self):
        clues = [FixedPosition("name", "Eric", 1), FixedPosition("name", "Eric", 2)]
        assert puzzles.brute_solve(SCHEMA2, clues) == []

    def test_limit_stops_early(self):
        assert len(puzzles.brute_solve(SCHEMA2, [], limit=2)) == 2

    def test_unique_solution(self):
        clues = [FixedPosition("name", "Eric", 1), SameHouse("name", "Eric", "pet", "dog")]
        solutions = puzzles.brute_solve(SCHEMA2, clues)
        assert solutions == [{"name": ("Eric", "Arnold"), "pet": ("dog", "cat")}]

    def test_oversized_schema_rejected(self):
        big = GridSchema(houses=6, attributes=(("name", tuple("ABCDEF")),))
        with pytest.raises(TooLarge):
            puzzles.brute_solve(big, [])

    @pytest.mark.parametrize(
        "clue",
        [
            FixedPosition("name", "Eric", 0),  # would index the last house
            FixedPosition("name", "Eric", 3),
            FixedPosition("colour", "red", 1),
            FixedPosition("name", "Zed", 1),
            SameHouse("name", "Eric", "pet", "Eric"),
            LeftOf("name", "Arnold", "color", "red"),
        ],
    )
    def test_clue_outside_schema_rejected(self, clue):
        # after a contradiction on the first attribute the search never
        # evaluates a clue staged at a later one
        with pytest.raises(ValueError):
            puzzles.brute_solve(SCHEMA2, [FixedPosition("name", "Eric", 1), FixedPosition("name", "Eric", 2), clue])
        with pytest.raises(ValueError):
            puzzles.brute_solve(SCHEMA2, [clue], limit=1)

    def test_schema_without_one_value_per_house_rejected(self):
        short = GridSchema(houses=3, attributes=(("name", ("Arnold", "Eric")),))
        with pytest.raises(ValueError):
            puzzles.brute_solve(short, [])

    @pytest.mark.parametrize("limit", [None, 1, 2])
    def test_matches_reference_enumerator(self, limit):
        for schema, clues in cross_check_cases(seed=20250, count=300):
            assert puzzles.brute_solve(schema, clues, limit=limit) == reference_solve(schema, clues, limit=limit)

    @pytest.mark.parametrize("limit", [None, 1, 2])
    def test_one_attribute_clues_match_reference(self, limit):
        """Sets of clues that each name one attribute, which the placement
        masks alone decide before the search: ``FixedPosition``, and
        two-sided clues between two values (equal ones too) of one attribute."""
        rng = random.Random(2017)
        for _ in range(200):
            schema = grid_schema(rng.randint(2, 5), rng.randint(1, 2))
            solution = {a: tuple(rng.sample(schema.values_for(a), schema.houses)) for a in schema.attribute_names}
            true = rng.random() < 0.7  # else drawn blind, often contradictory
            count = rng.randint(0, 2 * schema.houses)
            clues = []
            while len(clues) < count:
                attr = rng.choice(schema.attribute_names)
                value_a, value_b = rng.choice(schema.values_for(attr)), rng.choice(schema.values_for(attr))
                kind = rng.choice((FixedPosition, LeftOf, Adjacent, SameHouse))
                if kind is FixedPosition:
                    clue = FixedPosition(attr, value_a, rng.randint(1, schema.houses))
                else:
                    clue = kind(attr, value_a, attr, value_b)
                if not true or clue.holds(solution):
                    clues.append(clue)
            assert puzzles.brute_solve(schema, clues, limit=limit) == reference_solve(schema, clues, limit=limit), clues

    def test_matches_reference_without_clues(self):
        for houses in range(2, 5):
            schema = grid_schema(houses, 2)
            assert puzzles.brute_solve(schema, []) == reference_solve(schema, [])


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = puzzles.generate_puzzle(7, 3, 2)
        b = puzzles.generate_puzzle(7, 3, 2)
        assert a == b

    def test_unique_solution_and_minimal_clues(self):
        rng = random.Random(0)
        for _ in range(10):
            seed = rng.randrange(10_000)
            schema, clues, solution = puzzles.generate_puzzle(seed, 3, 2)
            found = puzzles.brute_solve(schema, clues)
            assert found == [solution]
            # minimality: removing any single clue admits >= 2 solutions
            for i in range(len(clues)):
                subset = clues[:i] + clues[i + 1:]
                assert len(puzzles.brute_solve(schema, subset, limit=2)) == 2

    def test_schema_shape(self):
        schema, clues, solution = puzzles.generate_puzzle(0, 4, 3)
        assert schema.houses == 4
        assert schema.attribute_names[0] == "name"
        assert len(schema.attributes) == 3
        assert all(len(values) == 4 for _, values in schema.attributes)

    def test_statement_lists_all_clues(self):
        schema, clues, _ = puzzles.generate_puzzle(1, 3, 2)
        statement = puzzles.render_statement(schema, clues)
        assert "## Clues:" in statement
        assert f"{len(clues)}." in statement
        assert "houses, numbered 1 to 3" in statement

    def test_grid_conversions_invert(self):
        schema, _, solution = puzzles.generate_puzzle(2, 3, 3)
        grid = puzzles.assignment_to_grid(schema, solution)
        houses = range(1, schema.houses + 1)
        assert sorted(grid) == list(houses)
        assert {attr: tuple(grid[h][attr] for h in houses) for attr in schema.attribute_names} == solution

    @pytest.mark.parametrize("size, seeds", [("3x3", 50), ("3x4", 50), ("4x3", 50), ("5x3", 5)])
    def test_matches_reference_generator(self, size, seeds):
        houses, attributes = map(int, size.split("x"))
        for seed in range(seeds):
            assert puzzles.generate_puzzle(seed, houses, attributes) == reference_generate(seed, houses, attributes)

    def test_oracle_calls_below_reference(self):
        puzzle, calls = count_oracle_calls(puzzles.generate_puzzle, 1, 4, 3)
        reference, reference_calls = count_oracle_calls(reference_generate, 1, 4, 3)
        assert puzzle == reference
        assert (calls, reference_calls) == (31, 44)

    def test_uniqueness_is_monotone_in_the_candidate_prefix(self):
        """Once a prefix of shuffled candidates is unique every longer one is,
        and the search finds the first unique prefix, or None if there is none."""
        rng = random.Random(31)
        for _ in range(24):
            houses, attributes = rng.randint(2, 4), rng.randint(1, 3)
            schema = grid_schema(houses, attributes)
            solution = {a: tuple(rng.sample(schema.values_for(a), houses)) for a in schema.attribute_names}
            candidates = puzzles._candidate_clues(schema, solution, rng)
            unique = [len(puzzles.brute_solve(schema, candidates[:k], limit=2)) == 1
                      for k in range(len(candidates) + 1)]
            first = unique.index(True)
            assert not any(unique[:first]) and all(unique[first:])
            assert puzzles._shortest_unique_prefix(schema, candidates) == first
            cut = rng.randint(1, len(candidates))
            expected = first if first <= cut else None
            assert puzzles._shortest_unique_prefix(schema, candidates[:cut]) == expected


@pytest.mark.parametrize("size", ["3x3", "3x4", "4x3", "4x4", "5x3", "5x4"])
def test_generator_output_matches_golden_digests(size):
    """Generated task records are byte-identical to the recorded digests
    (sha256 of each record's JSON line, one per seed 0-199 and size).  Five
    houses check seeds 0-19 only: all 200 take about a minute."""
    houses, attributes = map(int, size.split("x"))
    seeds = range(20) if houses == 5 else range(200)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[size]
    digests = []
    for seed in seeds:
        task, _ = bench.gen_puzzle(seed, houses, attributes)
        line = json.dumps(bench.task_to_record(task, "grid"), ensure_ascii=False)
        digests.append(hashlib.sha256(line.encode("utf-8")).hexdigest())
    assert digests == golden[: len(seeds)]
