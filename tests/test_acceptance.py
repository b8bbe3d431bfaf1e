"""Acceptance checks, one test per numbered criterion.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL|SKIP`` line
so a verbose run reads as a checklist; criterion 1 also has a test
showing that its row check rejects a wrong F.  Criterion 2 reproduces corpus
baselines and needs data files named by the environment variables
CONLL2000_TRAIN / CONLL2000_TEST (chunking, iob2 tags) and
RM_TRAIN / RM_TEST (base noun phrases, iob1 tags); without them it is
skipped and everything else must still pass.
"""

import os
from collections import Counter
from decimal import Decimal

import pytest

from chunkvote import (
    ChunkSpan,
    Corpus,
    Dataset,
    NestedSentence,
    Sentence,
    TagScheme,
    Token,
    VOTING_METHODS,
    WindowConfig,
    best_n_select,
    cascade_bracket,
    cascade_training_corpus,
    combine_corpus,
    corpus_to_dataset,
    f_beta,
    parse_conll,
    predict_igtree,
    predict_knn,
    score_chunks,
    score_tagged,
    train_igtree,
    train_knn,
    train_maxent,
    vote,
)
from chunkvote.cli import main
from chunkvote.ensemble import evaluate_subset

import datagen
from conftest import make_sentence
from oracles import (
    oracle_igtree_path,
    oracle_knn,
    oracle_maxent_counts,
    oracle_score,
    oracle_vote,
)

FOUR_TAGS = ("B-NP", "I-NP", "B-VP", "O")

# task, system, precision, recall, reported F, as published: the number of
# decimals is part of the figure, so trailing zeros are kept
REFERENCE_ROWS = (
    ("chunking", "MBL", "94.04", "91.00", "92.50"),
    ("chunking", "ALLiS", "91.87", "92.31", "92.09"),
    ("chunking", "ME", "92.08", "91.86", "91.97"),
    ("chunking", "ME Tag", "91.65", "92.23", "91.94"),
    ("chunking", "LSCG", "87.97", "88.17", "88.07"),
    ("chunking", "FST", "84.92", "86.75", "85.82"),
    ("chunking", "combination", "93.68", "92.98", "93.33"),
    ("chunking", "best", "93.45", "93.51", "93.48"),
    ("chunking", "baseline", "72.58", "82.14", "77.07"),
    ("base NP", "MBL", "93.63", "92.88", "93.25"),
    ("base NP", "ME", "93.20", "93.00", "93.10"),
    ("base NP", "ALLiS", "92.49", "92.69", "92.59"),
    ("base NP", "IGTree", "92.28", "91.65", "91.96"),
    ("base NP", "C5.0", "89.59", "90.66", "90.12"),
    ("base NP", "SOM", "89.29", "89.73", "89.51"),
    ("base NP", "combination", "93.78", "93.52", "93.65"),
    ("base NP", "best", "94.18", "93.55", "93.86"),
    ("base NP", "baseline", "78.20", "81.87", "79.99"),
    ("NP bracketing", "MBL", "90.00", "78.38", "83.79"),
    ("NP bracketing", "LSCG", "80.04", "80.25", "80.15"),
    ("NP bracketing", "MDL", "53.2", "68.7", "59.9"),
    ("NP bracketing", "best", "91.28", "76.06", "82.98"),
    ("NP bracketing", "baseline", "77.57", "59.85", "67.56"),
)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def verdict(ok):
    return "PASS" if ok else "FAIL"


def _half_unit(figure):
    """Half a unit in the last printed place of a published figure."""
    return 0.5 * 10.0 ** Decimal(figure).as_tuple().exponent


def _row_f_check(row, f=f_beta):
    """Compare a row's reported F with ``f`` at the row's own printed precision.

    The published precision and recall stand for any rates within half a
    unit in their last place.  F rises with both, so ``f`` at the low
    and at the high corners bounds the F those rates can give.  The row
    is consistent when that range overlaps the interval the reported F
    stands for.  Returns ``(ok, message)``.
    """
    task, system, precision, recall, reported = row
    hp, hr, hf = _half_unit(precision), _half_unit(recall), _half_unit(reported)
    p, r, reported_f = float(precision), float(recall), float(reported)
    low, high = f(p - hp, r - hr), f(p + hp, r + hr)
    ok = low <= reported_f + hf and high >= reported_f - hf
    message = (
        f"{task} {system}: F from P {precision} R {recall} in "
        f"[{low:.4f}, {high:.4f}], reported {reported} in "
        f"[{reported_f - hf:.4f}, {reported_f + hf:.4f}]"
    )
    return ok, message


def _rejected(f):
    return [
        message for ok, message in (_row_f_check(row, f) for row in REFERENCE_ROWS) if not ok
    ]


def test_01_f_rate_arithmetic(announce):
    failures = _rejected(f_beta)
    detail = (
        f"{len(REFERENCE_ROWS) - len(failures)}/{len(REFERENCE_ROWS)} rows "
        "consistent at their published precision"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    announce(f"ACCEPTANCE 1 f-rate arithmetic: {verdict(not failures)} ({detail})")
    assert not failures, failures


def test_01_row_check_rejects_a_wrong_f():
    mdl = next(row for row in REFERENCE_ROWS if row[1] == "MDL")
    assert _row_f_check(mdl)[0]
    for wrong in ("59.8", "60.1"):
        assert not _row_f_check(mdl[:4] + (wrong,))[0], wrong
    assert _rejected(lambda p, r: f_beta(p, r, beta=2.0))
    assert _rejected(lambda p, r: (p + r) / 2)


def _baseline_f(train_path, test_path, scheme, tmp_path, name):
    tagged = tmp_path / f"{name}.tagged"
    code = main([
        "baseline", train_path, test_path, "--scheme", scheme, "-o", str(tagged),
    ])
    assert code == 0
    gold = parse_conll(
        open(test_path, encoding="utf-8").read(), TagScheme(scheme), strict=False
    )
    pred = parse_conll(tagged.read_text(), TagScheme(scheme), strict=False)
    return 100 * score_tagged(gold, pred).f_rate


def test_02_baseline_reproduction(announce, tmp_path):
    targets = [
        ("chunking", "CONLL2000_TRAIN", "CONLL2000_TEST", "iob2", 77.07),
        ("base NP", "RM_TRAIN", "RM_TEST", "iob1", 79.99),
    ]
    results = []
    failures = []
    for name, train_var, test_var, scheme, expected in targets:
        train_path = os.environ.get(train_var)
        test_path = os.environ.get(test_var)
        if not train_path or not test_path:
            continue
        f = _baseline_f(train_path, test_path, scheme, tmp_path, name.replace(" ", "-"))
        results.append(f"{name} F {f:.2f} (expected {expected} +- 0.30)")
        if abs(f - expected) > 0.30:
            failures.append(results[-1])
    if not results:
        announce(
            "ACCEPTANCE 2 baseline reproduction: SKIP "
            "(set CONLL2000_TRAIN/CONLL2000_TEST and/or RM_TRAIN/RM_TEST)"
        )
        pytest.skip("baseline corpora not provided")
    announce(
        f"ACCEPTANCE 2 baseline reproduction: {verdict(not failures)} ({'; '.join(results)})"
    )
    assert not failures, failures


def test_03_scorer_oracle_equivalence(announce):
    r = datagen.rng(30_001)
    mismatches = 0
    all_gold = []
    all_pred = []
    for _ in range(200):
        length = r.randint(1, 15)
        gold = datagen.random_spans(r, length)
        pred = datagen.random_spans(r, length)
        all_gold.append(gold)
        all_pred.append(pred)
        report = score_chunks([gold], [pred])
        overall, per_label = oracle_score([gold], [pred])
        got = (report.overall.found, report.overall.gold, report.overall.correct)
        want = (overall["found"], overall["gold"], overall["correct"])
        if got != want:
            mismatches += 1
            continue
        for label, counts in report.per_label.items():
            want_label = per_label.get(label, {"found": 0, "gold": 0, "correct": 0})
            if (counts.found, counts.gold, counts.correct) != (
                want_label["found"], want_label["gold"], want_label["correct"]
            ):
                mismatches += 1
                break
    corpus_report = score_chunks(all_gold, all_pred)
    corpus_overall, _ = oracle_score(all_gold, all_pred)
    corpus_ok = (
        corpus_report.overall.found, corpus_report.overall.gold,
        corpus_report.overall.correct,
    ) == (corpus_overall["found"], corpus_overall["gold"], corpus_overall["correct"])
    ok = mismatches == 0 and corpus_ok
    announce(
        f"ACCEPTANCE 3 scorer oracle equivalence: {verdict(ok)} "
        f"(200 sentence pairs, {mismatches} mismatches)"
    )
    assert ok


def test_04_voting_oracle_equivalence(announce):
    r = datagen.rng(30_002)
    mismatches = 0
    unanimous_broken = 0
    for row in range(1000):
        n = r.randint(3, 7)
        systems = tuple(f"s{i}" for i in range(n))
        weights = datagen.random_weights(r, systems, FOUR_TAGS)
        if row % 10 == 0:
            tag = r.choice(FOUR_TAGS)
            votes = [(s, tag) for s in systems]
            for method in VOTING_METHODS:
                if vote(list(votes), method, weights) != tag:
                    unanimous_broken += 1
        else:
            votes = [(s, r.choice(FOUR_TAGS)) for s in systems]
            for method in VOTING_METHODS:
                if vote(list(votes), method, weights) != oracle_vote(votes, method, weights):
                    mismatches += 1
    ok = mismatches == 0 and unanimous_broken == 0
    announce(
        f"ACCEPTANCE 4 voting oracle equivalence: {verdict(ok)} "
        f"(1000 rows x {len(VOTING_METHODS)} methods, {mismatches} mismatches, "
        f"{unanimous_broken} unanimous rows changed)"
    )
    assert ok


def test_05_ensemble_lift(announce):
    r = datagen.rng(30_003)
    systems = tuple(f"s{i}" for i in range(5))
    tokens = 10_000
    errors = 0
    wrong_for = {tag: "O" if tag != "O" else "B-NP" for tag in FOUR_TAGS}
    for _ in range(tokens):
        gold = r.choice(FOUR_TAGS)
        wrong = wrong_for[gold]
        votes = [(s, wrong if r.random() < 0.2 else gold) for s in systems]
        if vote(votes, "majority") != gold:
            errors += 1
    rate = errors / tokens
    ok = rate < 0.11
    announce(
        f"ACCEPTANCE 5 ensemble lift: {verdict(ok)} "
        f"(5 systems at error 0.2 -> majority error {rate:.4f} < 0.11)"
    )
    assert ok


def _maxent_gap(dataset, **kwargs):
    model = train_maxent(dataset, **kwargs)
    empirical, expected, _, _ = oracle_maxent_counts(model, dataset.items)
    gap = max(
        abs(empirical.get(f, 0.0) - expected.get(f, 0.0))
        for f in set(empirical) | set(expected)
    )
    steps = model.trace.loglik
    worst_step = min(b - a for a, b in zip(steps, steps[1:])) if len(steps) > 1 else 0.0
    return gap, worst_step


def test_06_scaling_convergence(announce, tiny_corpus):
    r = datagen.rng(30_004)
    fixtures = {"corpus": corpus_to_dataset(tiny_corpus, WindowConfig())}
    items = []
    for _ in range(120):
        a = f"a{r.randint(0, 3)}"
        b = f"b{r.randint(0, 2)}"
        label = "X" if (a == "a0" or r.random() < 0.2) else "Y"
        items.append(((a, b), label))
    fixtures["synthetic"] = Dataset(tuple(items), ("a", "b"))
    details = []
    ok = True
    for name, dataset in fixtures.items():
        budget = 1e-3 * len(dataset.items)
        gap, worst_step = _maxent_gap(dataset, iterations=3000, cutoff=1)
        details.append(f"{name}: gap {gap:.2e} < {budget:.2e}, worst step {worst_step:.1e}")
        ok = ok and gap < budget and worst_step >= -1e-9
    announce(f"ACCEPTANCE 6 scaling convergence: {verdict(ok)} ({'; '.join(details)})")
    assert ok, details


def _random_vector(r, arity, pool):
    return tuple(r.choice(pool) for _ in range(arity))


def test_07_knn_and_tree_oracles(announce):
    r = datagen.rng(30_005)
    arity = 4
    seen = [f"v{i}" for i in range(5)]
    labels = ("X", "Y", "Z")
    items = tuple(
        (
            _random_vector(r, arity, seen),
            labels[0] if r.random() < 0.4 else r.choice(labels),
        )
        for _ in range(50)
    )
    dataset = Dataset(items, tuple(f"f{i}" for i in range(arity)))

    knn_bad = 0
    model = train_knn(dataset, k=3)
    pool = seen + ["q0", "q1"]
    for _ in range(50):
        query = _random_vector(r, arity, pool)
        want = oracle_knn(model.memory, model.weights, model.k, query, model.class_counts)
        if predict_knn(model, query) != want:
            knn_bad += 1

    tree = train_igtree(dataset)
    tree_bad = 0
    for vector, _ in dataset.items:
        want = oracle_igtree_path(
            dataset.items, tree.feature_order, vector, tree.class_counts
        )
        if predict_igtree(tree, vector) != want:
            tree_bad += 1

    ok = knn_bad == 0 and tree_bad == 0
    announce(
        f"ACCEPTANCE 7 nearest-neighbour and tree oracles: {verdict(ok)} "
        f"(50x50 knn queries, {knn_bad} mismatches; "
        f"{len(dataset.items)} tree lookups, {tree_bad} mismatches)"
    )
    assert ok


def _replay_tagger(corpus):
    queue = [list(s.chunk_tags) for s in corpus.sentences]

    def tag(sentence):
        if queue:
            return queue.pop(0)
        return ["O"] * len(sentence)

    return tag


def test_08_cascade_soundness(announce):
    r = datagen.rng(30_006)
    total = 0
    recovered = 0
    exact = True
    for _ in range(30):
        nested = datagen.random_nested_sentence(r, r.randint(2, 10))
        levels = cascade_training_corpus([nested])
        got = cascade_bracket(nested.sentence, _replay_tagger(levels), max_depth=20)
        total += len(nested.spans)
        matched = sum((Counter(got.spans) & Counter(nested.spans)).values())
        recovered += matched
        exact = exact and got == nested

    tokens = tuple(
        Token(w, p) for w, p in (("$", "$"), ("366.50", "CD"), ("an", "DT"), ("ounce", "NN"))
    )
    example = NestedSentence(
        tokens,
        (ChunkSpan(0, 2, "NP"), ChunkSpan(2, 4, "NP"), ChunkSpan(0, 4, "NP")),
    )
    levels = cascade_training_corpus([example])
    got = cascade_bracket(Sentence(tokens), _replay_tagger(levels), max_depth=5)
    example_ok = set(got.spans) == {
        ChunkSpan(0, 2, "NP"), ChunkSpan(2, 4, "NP"), ChunkSpan(0, 4, "NP")
    } and len(got.spans) == 3

    ok = exact and recovered == total and example_ok
    announce(
        f"ACCEPTANCE 8 cascade soundness: {verdict(ok)} "
        f"({recovered}/{total} spans recovered; currency example "
        f"{'exact' if example_ok else 'wrong'})"
    )
    assert ok


def _selection_table(seed=30_007):
    r = datagen.rng(seed)
    from chunkvote import PredictionRow, PredictionTable

    sentences = []
    for _ in range(40):
        tags = datagen.random_tags(r, r.randint(1, 7), types=("NP",))
        rows = []
        for tag in tags:
            close = tag if r.random() < 0.85 else r.choice(("B-NP", "I-NP", "O"))
            other = tag if r.random() < 0.8 else r.choice(("B-NP", "I-NP", "O"))
            noisy = r.choice(("B-NP", "I-NP", "O"))
            rows.append(PredictionRow(pos="NN", preds=(close, other, noisy), gold=tag))
        sentences.append(tuple(rows))
    return PredictionTable(("close", "other", "noisy"), tuple(sentences))


def test_09_subset_selection(announce):
    table = _selection_table()
    full = best_n_select(table, 3)
    full_f = evaluate_subset(table, full).f_rate
    majority_corpus = combine_corpus(table)
    gold_corpus = Corpus(
        tuple(
            make_sentence([("_", row.pos, row.gold) for row in rows])
            for rows in table.sentences
        ),
        TagScheme.IOB2,
    )
    majority_f = score_tagged(gold_corpus, majority_corpus).f_rate
    degenerate_ok = full == table.systems and full_f == pytest.approx(majority_f)

    best_two = best_n_select(table, 2)
    exclusion_ok = "noisy" not in best_two
    ok = degenerate_ok and exclusion_ok
    announce(
        f"ACCEPTANCE 9 subset selection: {verdict(ok)} "
        f"(full subset F {100 * full_f:.2f} == majority F {100 * majority_f:.2f}; "
        f"best pair {'/'.join(best_two)} leaves out the noisy system)"
    )
    assert ok
