"""End-to-end acceptance suite.

Each test covers one numbered criterion with a pinned tolerance and prints a
one-line PASS marker (visible with -s / on failure). Criterion 9 is an
optional live smoke test gated on network credentials; it never gates CI.
"""

import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from atomic_reasoner import (
    answers,
    bench,
    cases,
    checker,
    metrics,
    model,
    router,
    sop,
)
from atomic_reasoner.backends import (
    CacheBackend,
    CacheMode,
    HttpBackend,
    HttpConfig,
    ScriptedBackend,
)
from atomic_reasoner.checker import ErrorKind
from atomic_reasoner.model import (
    ActionCategory,
    AtomicAction,
    ChainStatus,
    FreeText,
    Problem,
)

from test_backends import make_http_backend, ok_payload, stub_server  # noqa: F401
from test_metrics import random_tree
from test_model import _random_walk

DATA = Path(__file__).parent / "data"


def _full_path(tree, chain):
    """All nodes from the root to the tip of `chain`, across branch points."""
    if chain.parent is None:
        prefix = []
    else:
        parent_chain = tree.chains[chain.parent[0]]
        parent = _full_path(tree, parent_chain)
        # the branch point index counts nodes on the parent chain only
        offset = len(parent) - len(parent_chain.node_ids)
        prefix = parent[: offset + chain.parent[1] + 1]
    return prefix + [tree.nodes[nid] for nid in chain.node_ids]


def test_criterion_1_structural_property_suite():
    """>=1,000 randomized op-sequences uphold all tree invariants in <10 s."""
    start = time.monotonic()
    for seed in range(1000):
        _random_walk(seed)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"structural suite took {elapsed:.2f}s"
    print(f"criterion 1: PASS (1000 sequences in {elapsed:.2f}s)")


OPENING_VERBS = [
    "ACTION: PremiseDiscovery\nGUIDANCE: g",
    "ACTION: PremiseRetrieval\nGUIDANCE: g",
    "ACTION: PremiseSummarization\nGUIDANCE: g",
    "ACTION: HypothesisGeneration\nGUIDANCE: g",
    "ACTION: HypothesisVerification\nGUIDANCE: g",
    "ACTION: SUMMARY<FINISHED>\nGUIDANCE: g",
    "ACTION: TERMINATE",
    "ACTION: BACKTRACK",
    "unparseable noise",
    "ACTION: NotARealAction\nGUIDANCE: g",
]

RANDOM_VERBS = OPENING_VERBS + ["", "TARGET: Step 3\nREASON: KeyNode"]


def _run_matrix_case(opening: str, seed: int):
    rng = random.Random(seed)
    responses = iter([opening])

    def reply(request):
        if request.tag == "routing":
            return next(responses, None) or rng.choice(RANDOM_VERBS)
        return f"Hypothesis 1: guess {rng.random():.4f}"  # solve

    backend = ScriptedBackend(
        {"check": "Check Result: No error.", "summarize": "summary"}, default=reply
    )
    tree, _final = router.run_session(
        Problem(id=f"m{seed}", statement="A puzzle.", answer_schema=FreeText()),
        config=router.SessionConfig(),
        backends=backend,
    )
    return tree


def test_criterion_2_router_rule_suite():
    """R1-R4 hold across a 200-case opening-verb x seed fixture matrix."""
    matrix = list(itertools.product(OPENING_VERBS, range(20)))
    assert len(matrix) == 200
    for opening, seed in matrix:
        tree = _run_matrix_case(opening, seed)
        # R1: round cap, and every session terminates
        assert model.round_count(tree) <= 12
        assert tree.terminated is not None
        assert len(tree.chains) <= 4
        for chain in tree.chains.values():
            path = _full_path(tree, chain)
            seen_verification = False
            for prev, node in zip([None] + path, path):
                # R2: a generated hypothesis is verified on the next round
                if prev is not None and prev.action is AtomicAction.HYPOTHESIS_GENERATION:
                    assert node.action is AtomicAction.HYPOTHESIS_VERIFICATION
                if node.action is AtomicAction.HYPOTHESIS_VERIFICATION:
                    seen_verification = True
                # R3: no finish lands on an unverified path
                if node.action is AtomicAction.SUMMARY_FINISHED:
                    assert seen_verification

    # R3, conversion of the *first* finish proposal, observed directly
    tree = model.new_tree(Problem(id="r3", statement="p", answer_schema=FreeText()))
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "facts")
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
    decision = router.decide(
        tree, router.SessionConfig(), ScriptedBackend({"routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: wrap up"})
    )
    assert isinstance(decision, router.Extend)
    assert decision.action is AtomicAction.HYPOTHESIS_VERIFICATION

    # R3 with no hypothesis at all: degrade to generation first
    bare = model.new_tree(Problem(id="r3b", statement="p", answer_schema=FreeText()))
    model.append_node(bare, AtomicAction.PREMISE_DISCOVERY, "g", "facts")
    decision = router.decide(
        bare, router.SessionConfig(), ScriptedBackend({"routing": "ACTION: TERMINATE"})
    )
    assert isinstance(decision, router.Extend)
    assert decision.action is AtomicAction.HYPOTHESIS_GENERATION

    # R4: unparseable twice falls back to a summarization step
    noisy = ScriptedBackend({"routing": ["noise", "more noise"]})
    decision = router.decide(bare, router.SessionConfig(), noisy)
    assert decision == router.Extend(AtomicAction.PREMISE_SUMMARIZATION, router.FALLBACK_GUIDANCE)
    assert len(noisy.calls) == 2
    print("criterion 2: PASS (200 matrix cases, R1-R4 direct checks)")


def _error_reports(tree):
    return [
        report
        for node in tree.nodes.values()
        for report in node.check_reports
        if report.is_error
    ]


def test_criterion_3_recorded_case_replays():
    """Shipped session recordings reproduce both reference runs exactly."""
    # Case 1: bird-ordering MCQ; one sorting error caught and revised
    fixture = cases.load_case("case1")
    tree, final = router.run_session(
        fixture.task.to_problem(),
        config=router.SessionConfig(),
        backends=fixture.backend(),
        sop_registry=sop.builtin_registry(),
    )
    assert answers.extract_mcq(final.text, answers.option_letters(fixture.task.schema)) == "A"
    assert bench.score(fixture.task, final.text).correct
    errors = _error_reports(tree)
    assert len(errors) == 1
    assert "SortingError" in errors[0].kinds
    assert "There is an error" in errors[0].rationale
    revised = [n for n in tree.nodes.values() if n.revised]
    assert len(revised) == 1
    assert revised[0].action is AtomicAction.HYPOTHESIS_VERIFICATION

    # Case 2: 3-house logic grid solved on the second chain after a backtrack
    fixture2 = cases.load_case("case2")
    tree2, final2 = router.run_session(
        fixture2.task.to_problem(),
        config=router.SessionConfig(),
        backends=fixture2.backend(),
        sop_registry=sop.builtin_registry(),
    )
    verdict = bench.score(fixture2.task, final2.text)
    assert verdict.correct and verdict.partial == 1.0
    assert len(tree2.chains) == 2
    statuses = {c.status for c in tree2.chains.values()}
    assert statuses == {ChainStatus.SUSPENDED, ChainStatus.ACTIVE}
    print("criterion 3: PASS (case1 -> (A) with one SortingError revision; case2 -> 100% grid)")


def test_criterion_4_oracle_equivalence():
    """200 generated puzzles: unique solutions, oracle pipeline mean 1.000,
    and the harness separates it from a lossy single-pass baseline. <60 s."""
    start = time.monotonic()
    tasks = []
    for seed in range(200):
        houses = 3 if seed % 2 == 0 else 4
        task, gold = bench.gen_puzzle(seed, houses, 3)
        solutions = bench.brute_solve_task(task)
        assert solutions == [gold], f"seed {seed} not uniquely solvable"
        tasks.append(task)

    config = router.SessionConfig()
    report = bench.run_benchmark(
        tasks,
        "ar",
        lambda task: bench.oracle_session_backend(task),
        trials=1,
        workers=8,
        session_config=config,
        sop_registry=sop.builtin_registry(),
    )
    assert report.mean_success() == 1.0  # tolerance: exactly 1.000 +/- 0

    lossy = ScriptedBackend({"solve": "Solution:\n- House 1: nobody"})
    baseline = bench.run_benchmark(tasks[:40], "single-pass", lossy, trials=1, workers=8)
    assert baseline.mean_success() < report.mean_success()

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.2f}s"
    print(f"criterion 4: PASS (200 unique puzzles, oracle mean 1.000, {elapsed:.1f}s)")


def test_criterion_5_checker_taxonomy():
    """13-kind partition, 100% parser accuracy on the 20-item corpus, and
    the revision cycle bound."""
    premise = checker.applicable_errors(AtomicAction.PREMISE_DISCOVERY)
    reasoning = checker.applicable_errors(AtomicAction.HYPOTHESIS_GENERATION)
    ending = checker.applicable_errors(AtomicAction.SUMMARY_FINISHED)
    assert (len(premise), len(reasoning), len(ending)) == (3, 6, 4)
    union = set(premise) | set(reasoning) | set(ending)
    assert union == set(ErrorKind) and len(union) == 13

    corpus = json.loads((DATA / "checker_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) == 20
    hits = 0
    for item in corpus:
        action = AtomicAction(item["action"])
        report = checker.parse_check_response(item["text"], action)
        if item["verdict"] is None:
            hits += report is None
            continue
        if report is None:
            continue
        hits += report.verdict == item["verdict"] and report.kinds == item["kinds"]
    assert hits == 20, f"parser corpus accuracy {hits}/20"

    # revision bound: a never-satisfied checker stops after max_revisions
    tree = model.new_tree(Problem(id="rev", statement="p", answer_schema=FreeText()))
    nid = model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "draft")
    node = tree.nodes[nid]
    drafts = iter(f"try {n}" for n in itertools.count(1))
    always_error = ScriptedBackend(
        {"check": "Check Result: There is an error.\nError Type: Content Conflict\nSuggestion: redo"},
        default=lambda request: next(drafts),
    )
    checker.run_check_cycle(tree, node, always_error)
    assert node.flagged
    assert len(node.check_reports) <= checker.MAX_REVISIONS + 1
    assert sum(1 for _ in node.check_reports) == 3  # 1 initial + 2 bounded retries
    print("criterion 5: PASS (13 kinds, 20/20 corpus, revisions <= 2)")


def test_criterion_6_entropy_diagnostics():
    """Closed-form, dot-product, and monotonicity checks, all within 1e-12."""
    for k in (2, 4, 8):
        dist = metrics.DiscreteDistribution.uniform([f"o{i}" for i in range(k)])
        assert abs(metrics.entropy(dist) - math.log2(k)) <= 1e-12

    rng = random.Random(6)

    def random_row(n):
        weights = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    for _ in range(1000):
        n = rng.randrange(2, 7)
        row = random_row(n)
        ents = [rng.uniform(0.0, 5.0) for _ in range(n)]
        oracle = sum(r * e for r, e in zip(row, ents))
        assert abs(metrics.weighted_step_entropy(row, ents) - oracle) <= 1e-12

    # monotonicity: shifting selection mass toward a higher-entropy action
    # never lowers the weighted step entropy
    for _ in range(1000):
        n = rng.randrange(2, 7)
        row = random_row(n)
        ents = [rng.uniform(0.0, 5.0) for _ in range(n)]
        lo, hi = sorted(rng.sample(range(n), 2), key=lambda i: ents[i])
        delta = rng.uniform(0.0, row[lo])
        shifted = list(row)
        shifted[lo] -= delta
        shifted[hi] += delta
        assert (
            metrics.weighted_step_entropy(shifted, ents)
            >= metrics.weighted_step_entropy(row, ents) - 1e-12
        )
    print("criterion 6: PASS (uniform, dot-product x1000, monotonicity x1000)")


def test_criterion_7_serialization_and_sft():
    """Trace round-trip identity on 500 random trees; SFT export of the
    first recorded case keeps the revised verification and the answer."""
    rng = random.Random(7)
    for _ in range(500):
        tree = random_tree(rng)
        doc = metrics.serialize_trace(tree)
        assert metrics.serialize_trace(metrics.deserialize_trace(doc)) == doc

    fixture = cases.load_case("case1")
    tree, final = router.run_session(
        fixture.task.to_problem(),
        config=router.SessionConfig(),
        backends=fixture.backend(),
        sop_registry=sop.builtin_registry(),
    )
    revised = [n for n in tree.nodes.values() if n.revised]
    records = metrics.to_sft_records(
        [metrics.ScoredTrace(tree=tree, correct=True, suite="case-studies")],
        filter="correct_only",
    )
    assert len(records) == 1
    assert revised[0].content in records[0].reasoning
    assert "(A)" in records[0].answer
    print("criterion 7: PASS (500 round-trips, SFT export keeps revision and (A))")


def test_criterion_8_backend_robustness(stub_server, tmp_path, monkeypatch):
    """Stub-server failure classification plus byte-identical record/replay."""
    from atomic_reasoner.errors import (
        AuthError,
        BackendTimeout,
        MalformedResponse,
        RateLimited,
    )
    from test_backends import make_request

    # 429 -> 500 -> ok: retried to success with two backoff sleeps
    stub_server.script[:] = [("status", 429), ("status", 500), ("ok", ok_payload("done"))]
    backend, sleeps = make_http_backend(stub_server)
    assert backend.complete(make_request()).text == "done"
    assert len(sleeps) == 2

    # persistent 429: classified as rate limiting after retries
    stub_server.script[:] = [("status", 429)] * 10
    backend, _ = make_http_backend(stub_server, max_retries=2)
    with pytest.raises(RateLimited):
        backend.complete(make_request())

    # auth failures are terminal, no retry
    stub_server.script[:] = [("status", 401)]
    backend, sleeps = make_http_backend(stub_server)
    with pytest.raises(AuthError):
        backend.complete(make_request())
    assert sleeps == []

    # malformed 200 body
    stub_server.script[:] = [("malformed", "{not json")]
    backend, _ = make_http_backend(stub_server, max_retries=0)
    with pytest.raises(MalformedResponse):
        backend.complete(make_request())

    # network timeout
    import requests as _requests

    backend, _ = make_http_backend(stub_server, max_retries=0)
    monkeypatch.setattr(
        backend._session, "post", lambda *a, **k: (_ for _ in ()).throw(_requests.Timeout("t"))
    )
    with pytest.raises(BackendTimeout):
        backend.complete(make_request())

    # record a full recorded-case session, then replay byte-identically
    fixture = cases.load_case("case1")
    recorder = CacheBackend(fixture.backend(), CacheMode.RECORD, tmp_path / "cache")
    tree_a, final_a = router.run_session(
        fixture.task.to_problem(),
        config=router.SessionConfig(),
        backends=recorder,
        sop_registry=sop.builtin_registry(),
    )
    replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path / "cache")
    replayer.model = recorder.model
    tree_b, final_b = router.run_session(
        fixture.task.to_problem(),
        config=router.SessionConfig(),
        backends=replayer,
        sop_registry=sop.builtin_registry(),
    )
    assert metrics.serialize_trace(tree_a) == metrics.serialize_trace(tree_b)
    assert final_a.text == final_b.text
    print("criterion 8: PASS (classification table + byte-identical replay)")


LIVE_KEY = os.environ.get("OPENAI_API_KEY")
LIVE_URL = os.environ.get("AR_LIVE_BASE_URL")


@pytest.mark.skipif(
    not (LIVE_KEY and LIVE_URL),
    reason="live smoke needs OPENAI_API_KEY and AR_LIVE_BASE_URL (optional, non-gating)",
)
def test_criterion_9_live_smoke():
    """Direction-only: on 10 easy generated puzzles with a real backend,
    the full pipeline is at least as good as one-shot prompting (3 trials)."""
    tasks = [bench.gen_puzzle(seed, 3, 2)[0] for seed in range(10)]
    backend = HttpBackend(
        HttpConfig(base_url=LIVE_URL, model=os.environ.get("AR_LIVE_MODEL", "gpt-4o-mini"))
    )
    full = bench.run_benchmark(
        tasks, "ar", backend, trials=3, workers=2,
        session_config=router.SessionConfig(),
        sop_registry=sop.builtin_registry(),
    )
    single = bench.run_benchmark(tasks, "single-pass", backend, trials=3, workers=2)
    assert full.mean_success() >= single.mean_success()
    print(
        f"criterion 9: PASS (ar {full.mean_success():.3f} >= single-pass {single.mean_success():.3f})"
    )
