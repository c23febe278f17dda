'''
System-level acceptance checks, one test per criterion.

Each test prints a single machine-greppable pass/fail line. The checks are
property- and oracle-based: coverage of the band construction, agreement
with a brute-force grid sweep, normalization and rank-equivalence
guarantees, shortlist exactness, behavior under missing modalities against
baselines, metric oracles, affine invariance, and end-to-end determinism.
'''

import json
import math
import time

import numpy as np
import pytest

import conformal_retrieval.pipeline as pipeline_module
from conformal_retrieval.cli import main
from conformal_retrieval.conformal import (
    band_set,
    conformal_probability,
    fit_band_arrays,
)
from conformal_retrieval.dataset import MultimodalDataset, RelevanceMap, split_queries
from conformal_retrieval.metrics import ranking_metrics
from conformal_retrieval.pipeline import fit_model, score_grid
from conformal_retrieval.retrieval import (
    RetrievalResult,
    batch_retrieve,
    heuristic_baseline,
    retrieve,
    retrieve_shortlist,
    write_results_csv,
)
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate


def check(num, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status}: {description}{suffix}")
    assert condition, f"acceptance {num:02d} failed: {description}{suffix}"


def recall_at_5(results, relevance):
    return ranking_metrics(results, relevance, ks=(5,)).recall_at[5]


def test_01_coverage_guarantee():
    '''Band membership hits its nominal rate within the stated window.'''
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    def draw(n):
        y = rng.random(n) < 0.35
        theta = np.where(y, rng.normal(0.75, 0.12, n), rng.normal(0.35, 0.15, n))
        return theta, y.astype(int)

    m = 2000
    theta_cal, y_cal = draw(m)
    band = fit_band_arrays(theta_cal, y_cal)
    theta_new, y_new = draw(10000)
    details = []
    ok = True
    for eps in (0.05, 0.1, 0.2):
        hits = sum(
            1 for t, y in zip(theta_new, y_new) if y in band_set(band, t, eps))
        freq = hits / 10000
        sigma = math.sqrt(eps * (1.0 - eps) / 10000)
        lo = 1.0 - eps - 3.0 * sigma
        hi = 1.0 - eps + 1.0 / (m + 1) + 3.0 * sigma
        ok = ok and lo <= freq <= hi
        details.append(f"eps={eps}: {freq:.4f} in [{lo:.4f}, {hi:.4f}]")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    details.append(f"{elapsed:.1f}s")
    check(1, "empirical coverage tracks 1-eps at every error rate",
          ok, "; ".join(details))


def test_02_probability_matches_grid_sweep_oracle(grid_sweep):
    '''conformal_probability equals the brute-force infimum over epsilon.'''
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    m = 500
    theta = np.linspace(0.0, 1.0, m)
    y = rng.integers(0, 2, m)
    # one exact mid-range positive pair keeps the {1}-only prediction set
    # reachable for every normalized score above one half
    theta[250] = 0.5
    y[250] = 1
    band = fit_band_arrays(theta, y)
    assert band.theta_min == 0.0 and band.theta_max == 1.0
    probes = rng.uniform(0.501, 1.0, 1000)
    tol = 1e-4 + 1.0 / (m + 1)
    worst = 0.0
    for t in probes:
        fast = conformal_probability(band, t)
        slow = grid_sweep(band, t, grid_step=1e-4)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 5.0
    check(2, "calibrated probability agrees with the grid-sweep oracle",
          ok, f"worst |diff| {worst:.2e} <= {tol:.2e}; {elapsed:.1f}s")


def test_03_normalization_maps_disjoint_ranges_into_unit_interval():
    '''Bands over disjoint raw ranges produce overlapping [0, 1] outputs.'''
    rng = np.random.default_rng(42)

    def make_band(lo, hi, n=400):
        theta = rng.uniform(lo, hi, n)
        theta[0], theta[1] = lo, hi  # pin the advertised raw range
        cut = (lo + hi) / 2.0
        y = (theta + rng.normal(0.0, 0.15 * (hi - lo), n) > cut).astype(int)
        y[0], y[1] = 0, 1
        return fit_band_arrays(theta, y)

    spans = []
    ok = True
    for lo, hi in ((0.3, 0.95), (-0.2, 0.5)):
        band = make_band(lo, hi)
        probes = rng.uniform(lo, hi, 2000)
        probes[0], probes[1] = lo, hi
        out = conformal_probability(band, probes)
        ok = ok and float(out.min()) >= 0.0 and float(out.max()) <= 1.0
        spans.append((float(out.min()), float(out.max())))
    overlap_lo = max(s[0] for s in spans)
    overlap_hi = min(s[1] for s in spans)
    ok = ok and overlap_lo < overlap_hi
    check(3, "calibrated outputs from mismatched raw ranges share [0, 1]",
          ok, f"spans {spans[0]} and {spans[1]} overlap "
              f"[{overlap_lo:.3f}, {overlap_hi:.3f}]")


def _dataset_with_duplicate_references(seed):
    base = generate(SynthConfig(
        n_queries=60, n_references=30,
        query_modalities=("a", "b"), reference_modalities=("a", "b"),
        spaces=(
            SynthSpace("s1", 16, noise_sigma=0.4, query_modalities=("a",),
                       reference_modalities=("a",)),
            SynthSpace("s2", 12, noise_sigma=0.7, query_modalities=("b",),
                       reference_modalities=("b",)),
        ),
        latent_dim=8,
        query_dropout={"a": 0.25, "b": 0.25},
        reference_dropout={"a": 0.3},
        keep_at_least_one_query=True,
        seed=seed))
    # duplicate the first five references so exact fused ties exist
    dup = 5
    ref_emb = {key: np.vstack([arr, arr[:dup]])
               for key, arr in base.reference_embeddings.items()}
    ref_mask = np.vstack([base.reference_mask, base.reference_mask[:dup]])
    relevance = RelevanceMap(base.n_queries, base.n_references + dup,
                             base.relevance.relevant)
    return MultimodalDataset(
        schema=base.schema,
        query_embeddings=base.query_embeddings,
        reference_embeddings=ref_emb,
        query_mask=base.query_mask,
        reference_mask=ref_mask,
        relevance=relevance)


def test_04_retrieval_order_equals_fused_order():
    '''retrieve() reproduces the fused-value order with index tie-breaks.'''
    ds = _dataset_with_duplicate_references(seed=13)
    model = fit_model(ds, list(range(10)))
    n_ref = ds.n_references
    ties_seen = 0
    ok = True
    for qi in range(10, 60):  # 50 held-out queries
        probs, fused, answerable = score_grid(model, ds, [qi])
        keyed = np.where(answerable[0], fused[0], -np.inf)
        finite = keyed[np.isfinite(keyed)]
        ties_seen += int(finite.size - np.unique(finite).size)
        expected = sorted(range(n_ref), key=lambda j: (-keyed[j], j))
        got = [r for r, _, _ in retrieve(model, ds, qi).ranked]
        ok = ok and got == expected
    ok = ok and ties_seen > 0
    check(4, "retrieval order is exactly the fused order with index ties",
          ok, f"50 queries, {ties_seen} tied cells exercised")


def _shortlist_suite_dataset(seed):
    # no reference dropout: every reference fuses the same pairs for a given
    # query, so growing the candidate pool cannot demote the true match
    return generate(SynthConfig(
        n_queries=200, n_references=60,
        query_modalities=("a", "b"), reference_modalities=("a", "b"),
        spaces=(
            SynthSpace("s1", 16, noise_sigma=0.3, query_modalities=("a",),
                       reference_modalities=("a",)),
            SynthSpace("s2", 12, noise_sigma=0.45, query_modalities=("b",),
                       reference_modalities=("b",)),
        ),
        latent_dim=8,
        query_dropout={"a": 0.25, "b": 0.25},
        keep_at_least_one_query=True,
        seed=seed))


def test_05_shortlist_exactness_and_monotonicity():
    '''Covering budgets reproduce exact retrieval; recall grows with alpha.'''
    # exactness: alpha * k covers every reference
    ds = _shortlist_suite_dataset(seed=0)
    cal, test = split_queries(ds.n_queries, 0.5, seed=0)
    model = fit_model(ds, cal)
    k = 15
    assert 4.0 * k >= ds.n_references
    exact_ok = True
    for qi in test:
        full = retrieve(model, ds, int(qi), k=k)
        fast = retrieve_shortlist(model, ds, int(qi), k=k, alpha=4.0)
        exact_ok = exact_ok and full.ranked == fast.ranked

    # monotonicity: mean recall@5 over 5 seeds, alpha in {1, 2, 4, 8}
    alphas = (1.0, 2.0, 4.0, 8.0)
    sums = {a: 0.0 for a in alphas}
    n_seeds = 5
    for seed in range(n_seeds):
        ds = _shortlist_suite_dataset(seed)
        cal, test = split_queries(ds.n_queries, 0.5, seed=seed)
        model = fit_model(ds, cal)
        for a in alphas:
            results = batch_retrieve(model, ds, query_ids=test, k=5,
                                     mode="shortlist", shortlist_alpha=a)
            sums[a] += recall_at_5(results, ds.relevance)
    means = [sums[a] / n_seeds for a in alphas]
    mono_ok = all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    ok = exact_ok and mono_ok
    check(5, "shortlist is exact under a covering budget and monotone in alpha",
          ok, "recall@5 by alpha " +
              ", ".join(f"{a:g}: {m:.4f}" for a, m in zip(alphas, means)))


def _scale_mismatch_dataset(seed):
    '''Two informative pairs whose raw score ranges barely overlap.

    The stronger pair sits on a compressed high scale (anchor offset) and is
    dropped from references a quarter of the time; the weaker pair is always
    present on a lower scale. A raw-score heuristic must mix the two
    incomparable scales in one ranking, burying references it can only score
    through the weaker pair; calibration makes the scales comparable.
    '''
    return generate(SynthConfig(
        n_queries=1000, n_references=100,
        query_modalities=("a", "b"), reference_modalities=("a", "b"),
        spaces=(
            SynthSpace("strong", 32, noise_sigma=0.25, score_offset=3.0,
                       query_modalities=("a",), reference_modalities=("a",)),
            SynthSpace("weak", 24, noise_sigma=0.3,
                       query_modalities=("b",), reference_modalities=("b",)),
        ),
        latent_dim=16,
        reference_dropout={"a": 0.25},
        seed=seed))


def test_06_calibrated_fusion_beats_raw_score_heuristic():
    '''Calibration wins against first-available-pair raw-score ranking.'''
    n_seeds = 5
    ours = 0.0
    heur = 0.0
    for seed in range(n_seeds):
        ds = _scale_mismatch_dataset(seed)
        cal, test = split_queries(ds.n_queries, 0.5, seed=seed)
        model = fit_model(ds, cal)
        results = batch_retrieve(model, ds, query_ids=test, k=5)
        ours += recall_at_5(results, ds.relevance)
        baseline = heuristic_baseline(ds, [("a", "a"), ("b", "b")],
                                      query_ids=test, k=5)
        heur += recall_at_5(baseline, ds.relevance)
    ours /= n_seeds
    heur /= n_seeds
    check(6, "calibrated retrieval recall@5 is at least the heuristic's",
          ours >= heur, f"calibrated {ours:.4f} vs heuristic {heur:.4f}, "
          f"{n_seeds} seeds x 500 test queries")


def _trimodal_config(seed, dropout):
    # one shared space scores all nine modality pairs, so any surviving
    # modality subset still yields a comparable fused value
    mods = ("a", "b", "c")
    spaces = (SynthSpace("shared", 24, noise_sigma=0.2,
                         query_modalities=mods, reference_modalities=mods),)
    drop = {"a": 0.5, "b": 0.5, "c": 0.5} if dropout else {}
    return SynthConfig(
        n_queries=400, n_references=60,
        query_modalities=mods, reference_modalities=mods,
        spaces=spaces, latent_dim=10,
        query_dropout=drop, reference_dropout=drop,
        keep_at_least_one_query=dropout, keep_at_least_one_reference=dropout,
        seed=seed)


def test_07_half_dropout_keeps_most_of_complete_recall():
    '''Recall with half the modalities missing stays near complete recall.'''
    n_seeds = 5
    incomplete = 0.0
    complete = 0.0
    for seed in range(n_seeds):
        ds_full = generate(_trimodal_config(seed, dropout=False))
        ds_drop = generate(_trimodal_config(seed, dropout=True))
        for ds, acc in ((ds_full, "complete"), (ds_drop, "incomplete")):
            cal, test = split_queries(ds.n_queries, 0.5, seed=seed)
            model = fit_model(ds, cal)
            results = batch_retrieve(model, ds, query_ids=test, k=5)
            value = recall_at_5(results, ds.relevance)
            if acc == "complete":
                complete += value
            else:
                incomplete += value
    incomplete /= n_seeds
    complete /= n_seeds
    check(7, "recall@5 under 50% dropout is at least 0.8x the complete run",
          incomplete >= 0.8 * complete,
          f"incomplete {incomplete:.4f} vs complete {complete:.4f} "
          f"(ratio {incomplete / complete:.3f}), {n_seeds} seeds")


def test_08_metric_oracle_and_closed_form_spearman():
    '''ranking_metrics matches a from-scratch enumeration, bit for bit.'''
    relevant = (frozenset({2}), frozenset({0, 5}), frozenset(),
                frozenset({1, 3, 7}), frozenset({6}))
    rankings = [
        [2, 1, 4, 0, 3, 5, 6, 7],
        [4, 0, 3, 5, 1, 2, 7, 6],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [7, 6, 5, 4, 3, 2, 1, 0],
        [3, 2, 1, 0, 7, 5, 4, 6],
    ]
    relevance = RelevanceMap(5, 8, relevant)
    results = [
        RetrievalResult(qi, [(r, 0.5, False) for r in ranked])
        for qi, ranked in enumerate(rankings)
    ]
    ks = (1, 5)
    report = ranking_metrics(results, relevance, ks)

    # independent plain-python enumeration
    recall = dict.fromkeys(ks, 0.0)
    precision = dict.fromkeys(ks, 0.0)
    ap = dict.fromkeys(ks, 0.0)
    for qi, ranked in enumerate(rankings):
        rel = relevant[qi]
        for k in ks:
            top = ranked[:k]
            hits = sum(1 for r in top if r in rel)
            precision[k] += hits / k
            if rel:
                recall[k] += 1.0 if hits > 0 else 0.0
                running = 0
                total = 0.0
                for i, r in enumerate(top):
                    if r in rel:
                        running += 1
                        total += running / (i + 1)
                ap[k] += total / min(len(rel), k)
    ok = True
    for k in ks:
        ok = ok and report.recall_at[k] == recall[k] / 5
        ok = ok and report.precision_at[k] == precision[k] / 5
        ok = ok and report.map_at[k] == ap[k] / 5
    check(8, "metrics match a brute-force oracle",
          ok, f"map@5 {report.map_at[5]:.6f}")


def _results_bytes(ds, monkeypatch, transform_pair=None):
    if transform_pair is not None:
        original = pipeline_module.pairwise_score_table

        def transformed(dataset, pair, query_ids, reference_ids):
            values, obs = original(dataset, pair, query_ids, reference_ids)
            if tuple(pair) == transform_pair:
                values[obs] = 3.0 * values[obs] + 0.1
            return values, obs

        monkeypatch.setattr(pipeline_module, "pairwise_score_table", transformed)
    try:
        cal, test = split_queries(ds.n_queries, 0.5, seed=3)
        model = fit_model(ds, cal)
        results = batch_retrieve(model, ds, query_ids=test, k=10)
    finally:
        monkeypatch.undo()
    lines = []
    for res in results:
        for rank, (ref, prob, una) in enumerate(res.ranked, start=1):
            lines.append(f"{res.query_index},{rank},{ref},"
                         f"{format(prob, '.17g')},{int(una)}")
    return "\n".join(lines).encode()


def test_09_affine_score_transform_is_invisible(monkeypatch):
    '''Rescaling one pair's raw scores end to end changes nothing.'''
    ds = _shortlist_suite_dataset(seed=21)
    plain = _results_bytes(ds, monkeypatch, transform_pair=None)
    scaled = _results_bytes(ds, monkeypatch, transform_pair=("a", "a"))
    check(9, "theta -> 3*theta + 0.1 on one pair leaves results byte-identical",
          plain == scaled, f"{len(plain)} result bytes compared")


def test_10_end_to_end_determinism(tmp_path):
    '''Same seed, any worker count: identical model, results, and report.'''
    def run(tag, workers):
        root = tmp_path / tag
        data = root / "data"
        model = root / "model.json"
        split = root / "split.json"
        results = root / "results.csv"
        report = root / "report.json"
        root.mkdir()
        assert main([
            "synth", "--out", str(data), "--queries", "80",
            "--references", "40",
            "--query-modalities", "a,b", "--reference-modalities", "a,b",
            "--space", "name=s1,dim=16,sigma=0.3,query=a,reference=a",
            "--space", "name=s2,dim=12,sigma=0.5,query=b,reference=b",
            "--latent-dim", "8", "--query-dropout", "a:0.2,b:0.2",
            "--keep-at-least-one-query", "--seed", "11"]) == 0
        assert main(["calibrate", "--data", str(data), "--out", str(model),
                     "--cal-fraction", "0.5", "--seed", "2",
                     "--split-out", str(split)]) == 0
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "10", "--queries-file", str(split),
                     "--workers", str(workers), "--out", str(results)]) == 0
        assert main(["evaluate", "--data", str(data), "--results", str(results),
                     "--ks", "1,5", "--out", str(report)]) == 0
        return (model.read_bytes(), results.read_bytes(), report.read_bytes())

    first = run("one", workers=1)
    second = run("two", workers=4)
    third = run("three", workers=2)
    ok = first == second == third
    check(10, "synth->calibrate->retrieve->evaluate is byte-deterministic",
          ok, "3 runs, worker counts 1/4/2, model+results+report compared")
