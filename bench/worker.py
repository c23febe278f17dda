'''Child-process side of the benchmark: input generation and measurement.

`generate` writes a workload's dataset for one seed. `measure` runs the
workload's timed phases against an already written dataset and writes one
JSON record of raw samples; bench/summary.py turns the records of a run's
measuring processes into metrics. Generation and measurement run in
separate processes, so the measured process never generates inputs and its
peak RSS belongs to the workload alone. bench/run.py sets the BLAS thread
variables in the environment before this module (and numpy) is imported.
'''

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from conformal_retrieval import (
    cli,
    conformal,
    dataset,
    pipeline,
    retrieval,
    synthgen,
)

from spec import KS, MODALITIES, WORKLOADS, input_digest
from tracer import Tracer, totals

# Minimum rounds per measuring process. A round times one pipeline pass,
# then repeats setup, batch and closed loop each for at least PHASE_S.
MIN_ROUNDS = 2
PHASE_S = 0.5
COVERAGE_EPSILON = 0.1
COVER_CHECK_QUERIES = 3
AGREEMENT_QUERIES = 60
SPOT_CHECKS_PER_BLOCK = 50


def synth_config(spec, seed) -> synthgen.SynthConfig:
    sigma1, sigma2 = spec["sigma"]
    dim = spec["dim"]
    spaces = (
        synthgen.SynthSpace("s1", dim, sigma1, 0.0, ("a", "b"), ("a", "b")),
        synthgen.SynthSpace("s2", dim, sigma2, 0.5, ("c",), ("c",)),
    )

    def dropout(p):
        return {mod: p for mod in MODALITIES} if p else {}

    return synthgen.SynthConfig(
        n_queries=spec["n_queries"],
        n_references=spec["n_references"],
        query_modalities=MODALITIES,
        reference_modalities=MODALITIES,
        spaces=spaces,
        query_dropout=dropout(spec["query_dropout"]),
        reference_dropout=dropout(spec["reference_dropout"]),
        keep_at_least_one_query=True,
        seed=seed,
    )


def cmd_generate(opts) -> int:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"environment": {"numpy": np.__version__, "blas": blas.get("name"),
                           "blas_version": blas.get("version")}}
    for seed, path in ((opts.seed, opts.out), (opts.pin_seed, opts.pin_out)):
        start = time.perf_counter()
        data = synthgen.generate(synth_config(WORKLOADS[opts.workload], seed))
        if path == opts.out:
            out["generate_s"] = time.perf_counter() - start
        dataset.save_dataset(data, path)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class Ops:
    '''Counts calls made and calls that raised or failed a check.'''

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)


def _sum(*values):
    '''Sum of the values present; None when every one is absent.'''
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _repeat(fn) -> list:
    '''Results of calling fn, at least once, until PHASE_S have passed.'''
    out, end = [], time.perf_counter() + PHASE_S
    while not out or time.perf_counter() < end:
        out.append(fn())
    return out


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class Budget:
    '''Deadline for a process: repeat until the minimum count is met and
    the next repetition, as long as the last one, would overrun by more
    than half of it. A run then measures for about its --seconds on
    average, even when a repetition takes a good share of them.'''

    def __init__(self, seconds, minimum):
        self.end = time.perf_counter() + seconds
        self.minimum = minimum
        self.last = 0.0

    def more(self, done) -> bool:
        if done < self.minimum:
            return True
        return time.perf_counter() + self.last / 2 <= self.end


# ---------------------------------------------------------------------------
# One measuring process
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, opts):
        self.opts = opts
        self.spec = WORKLOADS[opts.workload]
        self.ops = Ops()
        self.work = opts.work
        self.data = opts.data
        self.model_path = os.path.join(self.work, "model.json")
        self.split_path = os.path.join(self.work, "split.json")
        self.results_path = os.path.join(self.work, "results.csv")
        self.report_path = os.path.join(self.work, "report.json")
        self.tracer = Tracer(trace_targets()) if opts.trace else None
        self.first_bytes = None
        self.record = {"samples": {}, "layers": {}, "quality": {}}

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def traced(self, marks):
        '''Trace the block when this process traces, and note the range of
        its spans in marks.'''
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        begin = self.tracer.mark()
        try:
            yield
        finally:
            self.tracer.uninstall()
            marks.append((begin, self.tracer.mark()))

    # -- calibrate -> retrieve -> evaluate through the CLI entry point -----

    def cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ops.call(cli.main, argv)
        self.ops.check(code == 0, f"{argv[0]} exited {code}")

    def pipeline_pass(self) -> dict:
        spec, seed = self.spec, self.opts.seed
        calibrate = ["calibrate", "--data", self.data, "--out", self.model_path,
                     "--cal-fraction", repr(spec["cal_fraction"]),
                     "--seed", str(seed), "--split-out", self.split_path]
        if spec["negative_subsample"] is not None:
            calibrate += ["--negative-subsample",
                          f"{spec['negative_subsample']!r}:{seed}"]
        retrieve = ["retrieve", "--data", self.data, "--model", self.model_path,
                    "--queries-file", self.split_path, "--k", str(spec["k"]),
                    "--mode", spec["mode"],
                    "--shortlist-alpha", repr(spec["alpha"]),
                    "--workers", "1", "--out", self.results_path]
        evaluate = ["evaluate", "--data", self.data,
                    "--results", self.results_path,
                    "--ks", ",".join(map(str, KS)), "--out", self.report_path]
        times = {}
        with self.span("bench.pipeline"):
            start = time.perf_counter()
            for name, argv in (("calibrate", calibrate), ("retrieve", retrieve),
                               ("evaluate", evaluate)):
                with self.span(f"bench.{name}"):
                    begin = time.perf_counter()
                    self.cli(argv)
                    times[name] = time.perf_counter() - begin
            times["pipeline"] = time.perf_counter() - start
        outputs = tuple(_read(p) for p in (self.model_path, self.results_path,
                                          self.report_path))
        if self.first_bytes is None:
            self.first_bytes = outputs
        else:
            for label, got, want in zip(("model", "results", "report"),
                                        outputs, self.first_bytes):
                self.ops.check(got == want,
                               f"{label} bytes differ between pipeline passes")
        return times

    def setup_once(self):
        '''What `retrieve` pays before its first query.'''
        with self.span("bench.setup"):
            start = time.perf_counter()
            data = self.ops.call(dataset.load_dataset, self.data)
            model = self.ops.call(pipeline.load_model, self.model_path)
            return data, model, time.perf_counter() - start

    def batch(self, model, data, test, workers):
        spec = self.spec
        with self.span("bench.batch"):
            start = time.perf_counter()
            results = self.ops.call(
                retrieval.batch_retrieve, model, data, test, k=spec["k"],
                mode=spec["mode"], shortlist_alpha=spec["alpha"],
                workers=workers)
            wall = time.perf_counter() - start
        path = os.path.join(self.work, f"batch_w{workers}.csv")
        retrieval.write_results_csv(path, results)
        self.ops.check(_read(path) == self.first_bytes[1],
                       f"batch results at workers={workers} differ from the "
                       f"pipeline's results file")
        return results, wall

    def closed_cycle(self, model, data, test, expected) -> list:
        '''One caller makes one call at a time, once for every test query,
        so that each query weighs the same; returns latencies in seconds.'''
        spec = self.spec
        if spec["mode"] == "shortlist":
            def call(qi):
                return retrieval.retrieve_shortlist(model, data, qi, spec["k"],
                                                    spec["alpha"])
        else:
            def call(qi):
                return retrieval.retrieve(model, data, qi, spec["k"])
        latencies, mismatched = [], 0
        for qi, want in zip(test, expected):
            start = time.perf_counter()
            result = self.ops.call(call, qi)
            latencies.append(time.perf_counter() - start)
            mismatched += result.ranked != want.ranked
        self.ops.check(mismatched == 0,
                       f"{mismatched} closed-loop results differ from the batch")
        return latencies

    # -- correctness and quality, untimed --------------------------------

    def check_ranked(self, results, n_expected):
        k = self.spec["k"]
        self.ops.check(len(results) == n_expected,
                       f"{len(results)} results for {n_expected} queries")
        for res in results:
            refs = [ref for ref, _, _ in res.ranked]
            probs = [prob for _, prob, _ in res.ranked]
            self.ops.check(
                len(refs) == k and len(set(refs)) == k
                and all(a >= b for a, b in zip(probs, probs[1:])),
                f"query {res.query_index}: ranked list is not {k} distinct "
                f"references with non-increasing probabilities")

    def check_round_trip(self, loaded, data):
        '''load_model(save_model(m)) restores every band of a freshly
        fitted m bit for bit; the pipeline saved an identical fit.'''
        spec = self.spec
        with open(self.split_path, encoding="utf-8") as handle:
            calibration = json.load(handle)["calibration"]
        subsample = spec["negative_subsample"]
        fitted = pipeline.fit_model(
            data, calibration,
            negative_subsample=None if subsample is None
            else (subsample, self.opts.seed))

        def bits(band):
            return (np.float64(band.theta_min).tobytes(),
                    np.float64(band.theta_max).tobytes(),
                    band.sorted_gamma.tobytes())

        same = (bits(fitted.second_stage) == bits(loaded.second_stage)
                and fitted.first_stage.keys() == loaded.first_stage.keys()
                and all(bits(band) == bits(loaded.first_stage[pair])
                        for pair, band in fitted.first_stage.items()))
        self.ops.check(same, "load_model(save_model(m)) changed a band")

    def check_covering_shortlist(self, model, data, test):
        k = self.spec["k"]
        alpha = math.ceil(data.n_references / k)
        for qi in test[:COVER_CHECK_QUERIES]:
            exact = retrieval.retrieve(model, data, qi, k)
            short = retrieval.retrieve_shortlist(model, data, qi, k, alpha)
            self.ops.check(exact.ranked == short.ranked,
                           f"query {qi}: covering shortlist differs from exact")

    def coverage(self, model, data, test) -> float:
        '''Stage-two set coverage at COVERAGE_EPSILON on held-out answerable
        cells, vectorized from band_set's definition and spot-checked
        against band_set itself.'''
        band = model.second_stage
        m = band.size
        index = math.ceil((m + 1) * (1.0 - COVERAGE_EPSILON))
        threshold = math.inf if index > m else float(band.sorted_gamma[index - 1])
        labels = data.relevance.matrix()
        rng = np.random.default_rng(self.opts.seed)
        covered = total = disagree = 0
        for begin in range(0, len(test), 50):
            ids = np.asarray(test[begin:begin + 50])
            _, fused, answerable = pipeline.score_grid(model, data, ids)
            theta = fused[answerable]
            y = labels[ids][answerable].astype(np.float64)
            inside = (np.abs(y - conformal.normalize_score(band, theta))
                      <= threshold)
            covered += int(inside.sum())
            total += int(inside.size)
            for j in rng.choice(theta.size, replace=False,
                                size=min(theta.size, SPOT_CHECKS_PER_BLOCK)):
                in_set = int(y[j]) in conformal.band_set(
                    band, float(theta[j]), COVERAGE_EPSILON)
                disagree += in_set != bool(inside[j])
        self.ops.check(disagree == 0,
                       f"{disagree} coverage cells disagree with band_set")
        self.ops.check(total > 0, "no answerable held-out cells")
        return covered / max(total, 1)

    def agreement(self, model, data, test, results) -> float:
        '''Share of top-k rank positions, over held-out queries, at which
        shortlist and exact retrieval return the same entry.'''
        spec = self.spec
        same = total = 0
        for qi, res in list(zip(test, results))[:AGREEMENT_QUERIES]:
            if spec["mode"] == "shortlist":
                other = retrieval.retrieve(model, data, qi, spec["k"])
            else:
                other = retrieval.retrieve_shortlist(model, data, qi, spec["k"],
                                                     spec["alpha"])
            same += sum(a == b for a, b in zip(other.ranked, res.ranked))
            total += spec["k"]
        return same / total

    # -- the process -----------------------------------------------------

    def execute(self):
        traced = self.tracer is not None
        samples = self.record["samples"]
        for key in ("setup", "w1") + (("w2", "traced") if traced
                                      else ("latency",)):
            samples[key] = []
        passes, marks = [], {"pass": [], "setup": [], "batch": []}
        self.ops.check(input_digest(self.data) == self.opts.digest,
                       "input files differ from the generated ones")

        # Each round times every phase, so the samples of a metric spread
        # over the whole process instead of one stretch of it: the speed of
        # a shared machine wanders from one second to the next.
        budget = Budget(self.opts.seconds, MIN_ROUNDS)
        results = None
        while budget.more(len(passes)):
            start = time.perf_counter()
            with self.traced(marks["pass"]):
                passes.append(self.pipeline_pass())
            loads, end = 0, time.perf_counter() + PHASE_S
            while not loads or time.perf_counter() < end:
                loads += 1
                data = model = None  # one loaded copy at a time
                with self.traced(marks["setup"]):
                    data, model, wall = self.setup_once()
                samples["setup"].append(wall)
            if results is None:
                # Untimed warm-up: warm qps climbs over the first batches
                # of a process.
                warm = time.perf_counter()
                with open(self.split_path, encoding="utf-8") as handle:
                    test = [int(i) for i in json.load(handle)["test"]]
                results, _ = self.batch(model, data, test, 1)
                self.check_ranked(results, len(test))
                start += time.perf_counter() - warm
            samples["w1"] += _repeat(lambda: self.batch(model, data, test, 1)[1])
            if traced:
                # workers=2 throughput is only a per-layer figure
                samples["w2"].append(self.batch(model, data, test, 2)[1])
                with self.traced(marks["batch"]):
                    samples["traced"].append(
                        self.batch(model, data, test, 1)[1])
            else:
                for cycle in _repeat(lambda: self.closed_cycle(
                        model, data, test, results)):
                    samples["latency"] += cycle
            # the next pipeline pass must not count this copy in peak RSS
            data = model = None
            budget.last = time.perf_counter() - start
        samples["calibrate"] = [p["calibrate"] for p in passes]
        samples["pipeline"] = [p["pipeline"] for p in passes]

        if traced:
            self.record["layers"].update(self.layer_rows(
                passes, marks["pass"], marks["setup"], marks["batch"]))
        self.record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.record["n_test"] = len(test)
        self.record["model_bytes"] = len(self.first_bytes[0])
        self.record["digests"] = {
            label: hashlib.sha256(blob).hexdigest() for label, blob in
            zip(("model", "results", "report"), self.first_bytes)}

        if self.opts.final:
            data, model, _ = self.setup_once()
            if not traced:
                self.batch(model, data, test, 2)
            self.check_round_trip(model, data)
            self.check_covering_shortlist(model, data, test)
            if not traced:
                with open(self.report_path, encoding="utf-8") as handle:
                    report = json.load(handle)
                self.record["quality"] = {
                    "recall_at_10": float(report["recall_at"]["10"]),
                    "coverage_e10": self.coverage(model, data, test),
                    "shortlist_agreement": self.agreement(model, data, test,
                                                          results),
                }
        self.ops.check(input_digest(self.data) == self.opts.digest,
                       "input files changed during the run")

    def layer_rows(self, passes, pass_marks, setup_marks, batch_marks) -> dict:
        '''Per-repetition layer figures from the spans of each phase.'''
        spans_of = self.tracer.spans
        batch = []
        for begin, end in batch_marks:
            spans = spans_of[begin:end]
            score_s, score_n = totals(spans, "similarity.pairwise_score_table")
            lookup_s, lookup_n = totals(spans, "conformal.conformal_probability")
            fuse_s, grid_n = totals(spans, "pipeline.score_grid")
            rank_exact, _ = totals(spans, "retrieval.retrieve")
            rank_short, _ = totals(spans, "retrieval.retrieve_shortlist")
            batch.append({
                "wall": sum(s.duration for s in spans if s.name == "bench.batch"),
                "score_s": score_s, "cells": score_n.get("cells"),
                "flop": score_n.get("flop"),
                "lookup_s": lookup_s, "lookups": lookup_n.get("lookups"),
                "fuse_s": fuse_s, "rank_s": _sum(rank_exact, rank_short),
                "candidates": grid_n.get("candidates"),
                "queries": grid_n.get("queries"),
            })
        per_pass = []
        for (begin, end), times in zip(pass_marks, passes):
            spans = spans_of[begin:end]
            save_s, save_n = totals(spans, "pipeline.save_model")
            per_pass.append({
                "conformal_fit_s": totals(spans, "conformal.fit_band_arrays")[0],
                "fit_s": totals(spans, "pipeline.fit_model")[0],
                "save_s": save_s,
                "save_share": (None if save_s is None
                               else save_s / times["calibrate"]),
                "band_entries": save_n.get("band_entries"),
                "write_s": totals(spans, "retrieval.write_results_csv")[0],
                "read_s": totals(spans, "retrieval.read_results_csv")[0],
                "eval_s": _sum(totals(spans, "metrics.ranking_metrics")[0],
                               totals(spans, "metrics.write_report")[0]),
                "unaccounted_s": sum(s.self_s for s in spans
                                     if s.name.startswith("bench.")),
            })
        setup = []
        for begin, end in setup_marks:
            spans = spans_of[begin:end]
            load_ds_s, load_ds_n = totals(spans, "dataset.load_dataset")
            setup.append({"dataset_load_s": load_ds_s,
                          "bytes_read": load_ds_n.get("bytes_read"),
                          "load_s": totals(spans, "pipeline.load_model")[0]})
        return {"batch": batch, "pass": per_pass, "setup": setup}


# ---------------------------------------------------------------------------
# Trace targets: where each public function is looked up at call time
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_cells(args, kwargs):
    data, pair = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 1, "pair")
    cells = (len(_arg(args, kwargs, 2, "query_ids"))
             * len(_arg(args, kwargs, 3, "reference_ids")))
    return {"cells": cells, "flop": 2 * cells * data.schema.space_for(*pair).dim}


def _count_lookups(args, kwargs):
    return {"lookups": int(np.size(_arg(args, kwargs, 1, "theta")))}


def _count_grid(args, kwargs):
    data = _arg(args, kwargs, 1, "dataset")
    queries = _arg(args, kwargs, 2, "query_ids")
    refs = _arg(args, kwargs, 3, "reference_ids")
    return {"queries": data.n_queries if queries is None else len(queries),
            "candidates": data.n_references if refs is None else len(refs)}


def _count_band_entries(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    return {"band_entries": model.second_stage.size
            + sum(band.size for band in model.first_stage.values())}


def _count_bytes_read(args, kwargs):
    path = os.fspath(_arg(args, kwargs, 0, "path"))
    directory = path if os.path.isdir(path) else os.path.dirname(path)
    return {"bytes_read": sum(os.path.getsize(os.path.join(directory, name))
                              for name in os.listdir(directory))}


def trace_targets() -> list:
    '''(module, attribute, span name, counter) for every traced lookup.

    The CLI subcommands resolve the public API through the cli module's
    globals; fit_model and score_grid resolve scoring and lookups through
    the pipeline module's; batch_retrieve and retrieve_shortlist through
    the retrieval module's.
    '''
    return [
        (cli, "load_dataset", "dataset.load_dataset", _count_bytes_read),
        (cli, "split_queries", "dataset.split_queries", None),
        (cli, "fit_model", "pipeline.fit_model", None),
        (cli, "save_model", "pipeline.save_model", _count_band_entries),
        (cli, "load_model", "pipeline.load_model", None),
        (cli, "batch_retrieve", "retrieval.batch_retrieve", None),
        (cli, "write_results_csv", "retrieval.write_results_csv", None),
        (cli, "read_results_csv", "retrieval.read_results_csv", None),
        (cli, "ranking_metrics", "metrics.ranking_metrics", None),
        (cli, "write_report", "metrics.write_report", None),
        (dataset, "load_dataset", "dataset.load_dataset", _count_bytes_read),
        (pipeline, "load_model", "pipeline.load_model", None),
        (pipeline, "pairwise_score_table", "similarity.pairwise_score_table",
         _count_cells),
        (pipeline, "conformal_probability", "conformal.conformal_probability",
         _count_lookups),
        (pipeline, "fit_band_arrays", "conformal.fit_band_arrays", None),
        (retrieval, "pairwise_score_table", "similarity.pairwise_score_table",
         _count_cells),
        (retrieval, "score_grid", "pipeline.score_grid", _count_grid),
        (retrieval, "retrieve", "retrieval.retrieve", None),
        (retrieval, "retrieve_shortlist", "retrieval.retrieve_shortlist", None),
        (retrieval, "batch_retrieve", "retrieval.batch_retrieve", None),
    ]


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

def cmd_measure(opts) -> int:
    # cli.main configures INFO logging on first use; a handler installed
    # first keeps the subcommands' progress lines off the benchmark output.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    os.makedirs(opts.work, exist_ok=True)
    run = Run(opts)
    error = None
    try:
        run.execute()
    except Exception:  # the record must still reach the parent
        error = traceback.format_exc()
        run.ops.attempted += 1
        run.ops.failed += 1
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    record = run.record
    record.update(attempted=run.ops.attempted, failed=run.ops.failed,
                  failures=run.ops.failures, error=error,
                  absent=run.tracer.absent if run.tracer is not None else [])
    if run.tracer is not None and opts.spans:
        spans = run.tracer.spans
        index = {id(span): i for i, span in enumerate(spans)}
        with open(opts.spans, "w", encoding="utf-8") as handle:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": index.get(id(s.parent)), "counts": s.counts}
                       for s in spans], handle)
    with open(opts.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("generate")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pin-seed", type=int, required=True)
    p.add_argument("--pin-out", required=True)
    p.set_defaults(func=cmd_generate)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--final", type=int, choices=(0, 1), required=True,
                   help="also run the untimed quality and model checks")
    p.add_argument("--data", required=True)
    p.add_argument("--digest", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_measure)
    opts = parser.parse_args(argv)
    return opts.func(opts)


if __name__ == "__main__":
    raise SystemExit(main())
