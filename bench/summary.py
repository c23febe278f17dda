'''Metrics from the records of one run's measuring processes.

A run measures in several processes one after another, so a process that
happens to land on a slow or fast state of a shared machine moves the
result less. Standard library only.
'''

import statistics


def _pooled(records, key) -> list:
    return [value for record in records for value in record["samples"].get(key, [])]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _mean_of_medians(records, key, transform=lambda v: v) -> float:
    '''Mean over processes of each process's median sample.'''
    return statistics.fmean(
        transform(statistics.median(r["samples"][key])) for r in records)


def end_to_end(records) -> dict:
    '''Timings are medians within a process, averaged over the processes:
    one process can run some 30% slower than the next on the same inputs,
    and a median over a few processes would jump between the two.'''
    n_test = records[0]["n_test"]
    out = {
        "setup_s": _mean_of_medians(records, "setup"),
        "calibrate_s": _mean_of_medians(records, "calibrate"),
        "pipeline_s": _mean_of_medians(records, "pipeline"),
        "batch_qps": _mean_of_medians(records, "w1", lambda s: n_test / s),
        "query_p50_ms": _mean_of_medians(records, "latency", lambda s: 1e3 * s),
        "model_bytes": float(records[0]["model_bytes"]),
        # worker threads make one process's high-water mark vary; the run's
        # peak is the highest of its processes
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    # p95 is reported only with at least 10 samples beyond it in every
    # process, and averaged over the processes like the medians
    if all(len(r["samples"]["latency"]) >= 200 for r in records):
        out["query_p95_ms"] = statistics.fmean(
            1e3 * statistics.quantiles(r["samples"]["latency"], n=100,
                                       method="inclusive")[94]
            for r in records)
    out.update(records[-1]["quality"])
    return out


def per_layer(records, k, generate_s) -> dict:
    def rows(kind):
        return [row for record in records for row in record["layers"][kind]]

    def med(kind, key):
        return _median([row.get(key) for row in rows(kind)])

    w1 = _median(_pooled(records, "w1"))
    traced_wall = med("batch", "wall")
    out = {
        "similarity.score_s": med("batch", "score_s"),
        "similarity.cells": med("batch", "cells"),
        "conformal.lookup_s": med("batch", "lookup_s"),
        "conformal.lookups": med("batch", "lookups"),
        "conformal.fit_s": med("pass", "conformal_fit_s"),
        "conformal.band_entries": med("pass", "band_entries"),
        "pipeline.fit_s": med("pass", "fit_s"),
        "pipeline.save_s": med("pass", "save_s"),
        "pipeline.save_share": med("pass", "save_share"),
        "pipeline.load_s": med("setup", "load_s"),
        "pipeline.fuse_s": med("batch", "fuse_s"),
        "retrieval.rank_s": med("batch", "rank_s"),
        "retrieval.w2_speedup": w1 / _median(_pooled(records, "w2")),
        "retrieval.write_s": med("pass", "write_s"),
        "retrieval.read_s": med("pass", "read_s"),
        "dataset.load_s": med("setup", "dataset_load_s"),
        "dataset.bytes_read": med("setup", "bytes_read"),
        "metrics.eval_s": med("pass", "eval_s"),
        "synthgen.generate_s": generate_s,
        "trace.overhead": traced_wall / w1,
        "trace.unaccounted_s": med("pass", "unaccounted_s"),
    }
    flop = med("batch", "flop")
    if flop and out["similarity.score_s"]:
        out["similarity.gflop_per_s"] = flop / out["similarity.score_s"] / 1e9
        out["similarity.batch_share"] = out["similarity.score_s"] / traced_wall
    if out["conformal.lookups"] and out["conformal.lookup_s"]:
        out["conformal.ns_per_lookup"] = (
            1e9 * out["conformal.lookup_s"] / out["conformal.lookups"])
        out["conformal.batch_share"] = out["conformal.lookup_s"] / traced_wall
    candidates, queries = med("batch", "candidates"), med("batch", "queries")
    if candidates and queries:
        out["retrieval.candidates_per_query"] = candidates / queries
        out["retrieval.shortlist_yield"] = k * queries / candidates
    if out["conformal.band_entries"]:
        out["pipeline.bytes_per_band_entry"] = (
            records[0]["model_bytes"] / out["conformal.band_entries"])
    # a layer whose span never appeared is absent, not zero
    return {name: value for name, value in out.items() if value is not None}
