"""Traced run: wrap oproj's layer entry points and turn spans into metrics.

Every wrapper replaces a name in the module that looks it up at call time
(``oproj.ranking.orthonormalize``, ``oproj.adapters.format_matrix_csv``,
...), so the audited code itself is unchanged. A name that no longer
exists makes its layer metrics "missing"; a layer that a workload never
calls is "absent". Neither stops the audit.

Run as a script, this module is a traced ``oproj`` command line:

    python3 bench/layers.py SPANS.json audit --data ... (any oproj arguments)

It writes the audit's spans and counters to SPANS.json and exits with the
command's exit code.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time

from spans import Recorder, summarize

ABSENT = "absent"
MISSING = "missing"


def _count_cells(rec, args, result):
    X, y = result
    rec.count("dataio.cells_parsed", X.n * (X.k + (y is not None)))


def _count_candidates(rec, args, result):
    rec.count("transforms.candidates", len(result))


def _count_kept(rec, args, result):
    rec.count("linalg.offered", len(args[0]))
    rec.count("linalg.kept", len(result.vectors))


def _count_basis_projection(rec, args, result):
    # Two passes of out = D - B (B^T D) with D n x m and B n x r: each pass
    # reads B twice, reads D and the product, and writes B^T D's product
    # and the result, all float64.
    X_pre, _current, basis = args[:3]
    n, m, r = X_pre.n, X_pre.k - 1, len(basis.vectors)
    rec.count("linalg.project_flop", 2 * n * m * (4 * r + 1))
    rec.count("linalg.project_bytes", 2 * 8 * n * (2 * r + 5 * m))


def _count_vector_projection(rec, args, result):
    # Per remaining column: norm(u), u.v, u.u, coef*u and v - coef*u,
    # which read u four times and v twice and write two n-vectors.
    X_pre = args[0]
    n, m = X_pre.n, X_pre.k - 1
    rec.count("linalg.project_flop", 8 * n * m)
    rec.count("linalg.project_bytes", 72 * n * m)
    rec.count("linalg.offered", 1)
    rec.count("linalg.kept", 1)


def _spanned(observe=None):
    """Wrapper factory: one span per call, counted calls and errors, then
    ``observe(rec, args, result)`` for counts taken from the call."""

    def make(rec, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec.count(name + ".calls")
            with rec.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    rec.count(name + ".errors")
                    raise
            if observe is not None:
                observe(rec, args, result)
            return result

        return wrapper

    return make


def _timed_run(rec, name, run):
    """subprocess.run as the adapter calls it: wall time, bytes each way,
    and the CPU time of the model process it waits for."""

    @functools.wraps(run)
    def wrapper(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with rec.span(name):
            proc = run(*args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rec.count(
            "adapters.model_cpu_s",
            (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        )
        rec.count("adapters.bytes_sent", len(kwargs.get("input") or b""))
        rec.count("adapters.bytes_received", len(proc.stdout or b""))
        return proc

    return wrapper


# (module, name looked up in it, span, wrapper factory). Modules that the
# process never imported are skipped: their layers are absent. In a traced
# process only oproj.adapters calls subprocess.run.
WRAPPED = (
    ("oproj.cli", "load_csv", "dataio.load_csv", _spanned(_count_cells)),
    ("oproj.ranking", "standardize", "dataio.standardize", _spanned()),
    (
        "oproj.ranking",
        "build_removal_candidates",
        "transforms.candidates",
        _spanned(_count_candidates),
    ),
    ("oproj.ranking", "orthonormalize", "linalg.orthonormalize", _spanned(_count_kept)),
    (
        "oproj.ranking",
        "transform_against_feature",
        "linalg.project",
        _spanned(_count_basis_projection),
    ),
    (
        "oproj.ranking",
        "transform_against_vector",
        "linalg.project",
        _spanned(_count_vector_projection),
    ),
    ("oproj.ranking", "compute_metric", "ranking.metric", _spanned()),
    ("oproj.ranking", "rank_all", "ranking.rank_all", _spanned()),
    ("oproj.cli", "rank_all", "ranking.rank_all", _spanned()),
    ("oproj.adapters", "ModelHandle.predict_batch", "adapters.predict", _spanned()),
    ("oproj.adapters", "format_matrix_csv", "adapters.encode", _spanned()),
    ("oproj.adapters", "parse_prediction_lines", "adapters.parse", _spanned()),
    ("subprocess", "run", "adapters.roundtrip", _timed_run),
    ("oproj.cli", "train_surrogate", "surrogate.train", _spanned()),
    ("oproj.cli", "build_document", "report.write", _spanned()),
    ("oproj.cli", "write_json", "report.write", _spanned()),
    ("oproj.cli", "write_csv", "report.write", _spanned()),
    ("oproj.cli", "write_svg", "report.write", _spanned()),
)


def install(rec: Recorder) -> tuple[list, set[str]]:
    """Wrap every name in WRAPPED that the process has imported.

    Returns the undo actions, to run in reverse order, and the span names
    whose wrapper could not be installed because the name is gone.
    """
    undo: list = []
    missing: set[str] = set()
    for module_name, dotted, span, make in WRAPPED:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_attr, _, attr = dotted.rpartition(".")
        holder = getattr(module, owner_attr, None) if owner_attr else module
        original = getattr(holder, attr, None)
        if original is None:
            missing.add(span)
            continue
        setattr(holder, attr, make(rec, span, original))
        undo.append(functools.partial(setattr, holder, attr, original))
    return undo, missing


def uninstall(undo: list) -> None:
    for action in reversed(undo):
        action()


def _time(span):
    """Seconds inside the span, totalled per audit."""
    return "s", (span,), lambda total, self_time, counts: total[span]


def _counter(span, name, unit="count", scale=1):
    """A counter recorded by the span's wrapper, scaled to ``unit``."""
    return unit, (span,), lambda total, self_time, counts: counts.get(name, 0) * scale


def _kept_ratio(total, self_time, counts):
    return counts["linalg.kept"] / counts["linalg.offered"]


def _rank_all_self(total, self_time, counts):
    return self_time["ranking.rank_all"]


# metric -> (unit, spans it needs, the first of which must have run, value)
LAYER_METRICS = {
    "dataio.load_csv_s": _time("dataio.load_csv"),
    "dataio.standardize_s": _time("dataio.standardize"),
    "dataio.cells_parsed": _counter("dataio.load_csv", "dataio.cells_parsed"),
    "transforms.candidates_s": _time("transforms.candidates"),
    "transforms.candidates": _counter("transforms.candidates", "transforms.candidates"),
    "linalg.orthonormalize_s": _time("linalg.orthonormalize"),
    "linalg.project_s": _time("linalg.project"),
    "linalg.kept_ratio": ("ratio", ("linalg.project", "linalg.orthonormalize"), _kept_ratio),
    "linalg.project_gflop": _counter("linalg.project", "linalg.project_flop", "GFLOP", 1e-9),
    "linalg.project_mb_moved": _counter("linalg.project", "linalg.project_bytes", "MB", 1e-6),
    "ranking.self_s": ("s", ("ranking.rank_all",), _rank_all_self),
    "ranking.metric_s": _time("ranking.metric"),
    "adapters.predict_s": _time("adapters.predict"),
    "adapters.encode_s": _time("adapters.encode"),
    "adapters.roundtrip_s": _time("adapters.roundtrip"),
    "adapters.parse_s": _time("adapters.parse"),
    "adapters.model_cpu_s": _counter("adapters.roundtrip", "adapters.model_cpu_s", "s"),
    "adapters.queries": _counter("adapters.predict", "adapters.predict.calls"),
    "adapters.failed_queries": _counter("adapters.predict", "adapters.predict.errors"),
    "adapters.bytes_sent": _counter("adapters.roundtrip", "adapters.bytes_sent", "bytes"),
    "adapters.bytes_received": _counter(
        "adapters.roundtrip", "adapters.bytes_received", "bytes"
    ),
    "surrogate.train_s": _time("surrogate.train"),
    "report.write_s": _time("report.write"),
}


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds that one span adds to a call: a wrapped no-op against a bare
    one, median over ``repeats`` timings of ``calls`` calls each."""

    def bare():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = _spanned()(Recorder(), "calibration", bare)
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - 2 * t1 + t0) / calls)
    return statistics.median(costs)


def layer_metrics(dump: dict, missing) -> dict[str, float | str]:
    """One audit's value of every layer metric, or ABSENT / MISSING, plus
    ``trace.spans``, the number of spans it recorded."""
    total, self_time = summarize(dump)
    out: dict[str, float | str] = {}
    for name, (_unit, needs, value) in LAYER_METRICS.items():
        if any(span in missing for span in needs):
            out[name] = MISSING
        elif needs[0] not in total:
            out[name] = ABSENT
        else:
            out[name] = value(total, self_time, dump["counts"])
    out["trace.spans"] = len(dump["spans"])
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import oproj.cli

    rec = Recorder()
    undo, missing = install(rec)
    try:
        return oproj.cli.main(cli_args)
    finally:
        uninstall(undo)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": rec.dump(), "missing": sorted(missing)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
