'''Command-line entry points for the calibrated retrieval pipeline.

Subcommands: synth (make a synthetic dataset), calibrate (fit and save a
model), retrieve (rank references for queries), evaluate (score a results
file), inspect (summarize a saved model).

Exit codes: 0 success, 1 usage or value errors, 2 unreadable or malformed
files, 3 model/dataset schema mismatch.
'''

import argparse
import logging
import math
import sys

from .dataset import (
    DataFormatError,
    load_dataset,
    parse_json,
    read_binary,
    save_dataset,
    split_queries,
    write_json,
)
from .metrics import ranking_metrics, write_report
from .pipeline import ModelDataMismatchError, fit_model, load_model, save_model
from .retrieval import (
    batch_retrieve,
    heuristic_baseline,
    read_results_csv,
    write_results_csv,
)
from .synthgen import SynthConfig, SynthSpace, generate

__all__ = ["main"]

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    '''ArgumentParser whose usage errors exit 1 instead of 2.'''

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Flag grammar
# ---------------------------------------------------------------------------

def _entries(text: str) -> list:
    '''The comma-separated entries of a flag value, empty ones skipped.'''
    return [entry for entry in text.split(",") if entry]


def _split(entry: str, sep: str) -> tuple:
    '''(key, value) of one entry split once at sep; neither may be empty.'''
    key, found, value = entry.partition(sep)
    if not (found and key and value):
        raise ValueError(f"{entry!r} is not KEY{sep}VALUE")
    return key, value


def _distinct(names: list) -> list:
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ValueError(f"{twice[0]!r} is given twice")
    return names


def _grammar(parse):
    '''Make parse the argparse type= of a flag: a bad value then goes
    through _Parser.error, which names the flag and exits 1.'''
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@_grammar
def _modalities(text: str) -> tuple:
    mods = _distinct(_entries(text))
    if not mods:
        raise ValueError(f"no modality names in {text!r}")
    return tuple(mods)


def _keyed(text: str, sep: str) -> dict:
    pairs = [_split(entry, sep) for entry in _entries(text)]
    _distinct([key for key, _ in pairs])
    return dict(pairs)


@_grammar
def _space(text: str) -> SynthSpace:
    '''Parse "name=s1,dim=64,sigma=0.1,offset=0,query=a+b,reference=all".'''
    fields = _keyed(text, "=")
    known = ("name", "dim", "sigma", "offset", "query", "reference")
    unknown = sorted(set(fields) - set(known))
    if unknown:
        raise ValueError(f"unknown space fields {unknown}, expected {known}")
    if "name" not in fields or "dim" not in fields:
        raise ValueError("a space spec needs at least name= and dim=")

    def side(value):
        return None if value in (None, "all") else _modalities(
            value.replace("+", ","))

    return SynthSpace(
        name=fields["name"],
        dim=_dim(fields["dim"]),
        noise_sigma=_sigma(fields.get("sigma", "0")),
        score_offset=_offset(fields.get("offset", "0")),
        query_modalities=side(fields.get("query")),
        reference_modalities=side(fields.get("reference")),
    )


@_grammar
def _dropout(text: str) -> dict:
    '''Parse "a:0.3,b:0.1" into a per-modality probability dict.'''
    return {mod: _probability(prob) for mod, prob in _keyed(text, ":").items()}


def _bounded(kind, ok, rule: str):
    '''The grammar of one value of the given kind for which ok holds.'''
    @_grammar
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:  # not a number of that kind at all
            pass
        raise ValueError(f"expected {rule}, got {text!r}")
    return parse


_count = _bounded(int, lambda n: n >= 1, "an integer of at least 1")
_seed = _bounded(int, lambda n: n >= 0, "a non-negative integer")
_fraction = _bounded(float, lambda x: 0.0 < x < 1.0, "a number strictly inside (0, 1)")
_alpha = _bounded(float, lambda x: 1.0 <= x < float("inf"), "a finite number of at least 1")
_probability = _bounded(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
_dim = _bounded(int, lambda n: n >= 1, "an integer dim of at least 1")
_sigma = _bounded(float, lambda x: 0.0 <= x < float("inf"), "a finite sigma of at least 0")
_offset = _bounded(float, math.isfinite, "a finite offset")


def _ints(entry):
    '''The grammar of a non-empty list of entry values.'''
    @_grammar
    def parse(text: str) -> list:
        values = [entry(item) for item in _entries(text)]
        if not values:
            raise ValueError(f"no integers in {text!r}")
        return values
    return parse


@_grammar
def _subsample(text: str) -> tuple:
    '''Parse "RATIO:SEED"; an empty value means no subsampling.'''
    if not text:
        return None
    ratio, seed = _split(text, ":")
    return _probability(ratio), _seed(seed)


@_grammar
def _pairs(text: str) -> list:
    '''Parse "QMOD:RMOD,..." into modality pairs; none means no baseline.'''
    return [_split(entry, ":") for entry in _entries(text)]


def _read_queries_file(path) -> list:
    '''Accept a JSON list of ids, or a split file holding a "test" list.'''
    doc = parse_json(read_binary(path), path)
    if isinstance(doc, dict):
        doc = doc.get("test")
    if not isinstance(doc, list) or not all(type(v) is int for v in doc):
        raise DataFormatError(
            f"{path}: expected a JSON list of integers or an object with a "
            f"\"test\" list")
    return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = SynthConfig(
        n_queries=args.queries,
        n_references=args.references,
        query_modalities=args.query_modalities,
        reference_modalities=args.reference_modalities,
        spaces=tuple(args.space),
        latent_dim=args.latent_dim,
        relevant_per_query=args.relevant_per_query,
        query_dropout=args.query_dropout,
        reference_dropout=args.reference_dropout,
        keep_at_least_one_query=args.keep_at_least_one_query,
        keep_at_least_one_reference=args.keep_at_least_one_reference,
        seed=args.seed,
    )
    dataset = generate(config)
    save_dataset(dataset, args.out)
    logger.info("synth: wrote %d queries x %d references (%d spaces, seed %d) to %s",
                dataset.n_queries, dataset.n_references, len(args.space), args.seed,
                args.out)
    return 0


def cmd_calibrate(args) -> int:
    dataset = load_dataset(args.data)
    calibration_ids, test_ids = split_queries(
        dataset.n_queries, args.cal_fraction, args.seed)
    model = fit_model(dataset, calibration_ids, fuser=args.fuser,
                      negative_subsample=args.negative_subsample)
    save_model(model, args.out)
    logger.info(
        "calibrate: %d calibration / %d held-out queries, fuser %s, "
        "subsample %s, %d modality pairs -> %s",
        len(calibration_ids), len(test_ids), args.fuser,
        args.negative_subsample or "none", len(model.first_stage), args.out)
    if args.split_out:
        write_json(args.split_out, {"calibration": [int(i) for i in calibration_ids],
                                    "test": [int(i) for i in test_ids]})
    return 0


def cmd_retrieve(args) -> int:
    query_ids = args.queries
    if args.queries_file is not None:
        query_ids = _read_queries_file(args.queries_file)
    if query_ids is not None and len(set(query_ids)) != len(query_ids):
        # the results file keeps one contiguous block of rows per query
        raise ValueError("duplicate query ids")
    dataset = load_dataset(args.data)
    model = load_model(args.model)
    results = batch_retrieve(model, dataset, query_ids=query_ids, k=args.k,
                             mode=args.mode, shortlist_alpha=args.shortlist_alpha,
                             workers=args.workers)
    write_results_csv(args.out, results)
    logger.info("retrieve: %d queries, mode %s, k %s, %d workers -> %s",
                len(results), args.mode, args.k, args.workers, args.out)
    return 0


def _print_report(report, prefix: str = ""):
    print(f"{prefix}queries {report.query_count} "
          f"answerable {report.answerable_query_count}")
    for k in report.ks:
        print(f"{prefix}recall@{k} {report.recall_at[k]:.4f} "
              f"precision@{k} {report.precision_at[k]:.4f} "
              f"map@{k} {report.map_at[k]:.4f}")


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.data)
    results = read_results_csv(args.results)
    report = ranking_metrics(results, dataset.relevance, args.ks)
    _print_report(report)
    if args.out:
        write_report(report, args.out)
        logger.info("evaluate: report -> %s", args.out)
    if args.baseline:
        baseline = heuristic_baseline(
            dataset, args.baseline, query_ids=[r.query_index for r in results])
        _print_report(ranking_metrics(baseline, dataset.relevance, args.ks),
                      prefix="baseline ")
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    print(f"fuser {model.fuser.value}")
    print(f"schema fingerprint {model.schema_fingerprint}")
    for (qmod, rmod), band in model.first_stage.items():
        print(f"band {qmod}->{rmod} "
              f"range [{band.theta_min:.6g}, {band.theta_max:.6g}] m {band.size}")
    second = model.second_stage
    print(f"second stage range [{second.theta_min:.6g}, "
          f"{second.theta_max:.6g}] m {second.size}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="conformal-retrieval",
        description="Calibrated cross-modal retrieval with missing modalities.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--queries", type=_count, default=200)
    p.add_argument("--references", type=_count, default=100)
    p.add_argument("--query-modalities", type=_modalities, default="a,b", metavar="A,B")
    p.add_argument("--reference-modalities", type=_modalities, default="a,b", metavar="A,B")
    p.add_argument("--space", type=_space, action="append", required=True,
                   metavar="SPEC",
                   help="name=s1,dim=64[,sigma=0.1][,offset=0][,query=a+b]"
                        "[,reference=all]; repeat per space")
    p.add_argument("--latent-dim", type=_count, default=32)
    p.add_argument("--relevant-per-query", type=_count, default=1)
    p.add_argument("--query-dropout", type=_dropout, default="", metavar="A:P,B:P")
    p.add_argument("--reference-dropout", type=_dropout, default="", metavar="A:P,B:P")
    p.add_argument("--keep-at-least-one-query", action="store_true")
    p.add_argument("--keep-at-least-one-reference", action="store_true")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="fit a model on a calibration split")
    p.add_argument("--data", required=True, help="dataset directory or manifest")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--cal-fraction", type=_fraction, default=0.5)
    p.add_argument("--seed", type=_seed, default=0, help="split seed")
    p.add_argument("--fuser", choices=("mean", "max"), default="mean")
    p.add_argument("--negative-subsample", type=_subsample, metavar="RATIO:SEED")
    p.add_argument("--split-out", metavar="PATH",
                   help="also write the calibration/test query ids as JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("retrieve", help="rank references for queries")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="results CSV to write")
    p.add_argument("--k", type=_count, default=None,
                   help="entries per query (default: all references)")
    p.add_argument("--mode", choices=("exact", "shortlist"), default="exact")
    p.add_argument("--shortlist-alpha", type=_alpha, default=4.0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--queries", type=_ints(int), metavar="I,J,K",
                       help="query ids to process (default: all)")
    group.add_argument("--queries-file", metavar="PATH",
                       help="JSON list of ids, or a --split-out file "
                            "(its \"test\" ids are used)")
    p.add_argument("--workers", type=_count, default=1)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="score a results file against relevance")
    p.add_argument("--data", required=True)
    p.add_argument("--results", required=True, help="results CSV from retrieve")
    p.add_argument("--ks", type=_ints(_count), default="1,5,10", metavar="K,K,K")
    p.add_argument("--out", help="also write the report as JSON")
    p.add_argument("--baseline", type=_pairs, metavar="QMOD:RMOD,...",
                   help="also report a raw-score baseline using these "
                        "modality pairs in priority order")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize a saved model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ModelDataMismatchError):
            return 3
        return 2 if isinstance(exc, (DataFormatError, OSError)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
