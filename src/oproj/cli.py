"""Command-line surface: audit, synth, and validate subcommands.

Exit codes: 0 success, 1 audit/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from dataclasses import replace
from pathlib import Path

from .adapters import SubprocessModel, SubprocessSpec
from .dataio import (
    DatasetSchema,
    generate_synthetic,
    load_csv,
    parse_schema_file,
    parse_synthetic_spec,
    save_csv,
)
from .errors import OprojError, SyntheticSpecError
from .oracle import loco_refit_importances, spearman_rank_correlation
from .ranking import AuditConfig, PerformanceMetric, rank_all
from .report import (
    aggregate_categorical_groups,
    build_document,
    write_csv,
    write_json,
    write_svg,
)
from .surrogate import LogisticModel, train_surrogate
from .transforms import TransformSet

ENV_SEED = "OPROJ_SEED"


def parse_transforms(spec: str) -> TransformSet:
    """Grammar: 'all', 'none', or a comma list of log / exp / poly<N>."""
    tokens = [t.strip().lower() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty transform spec")
    if "all" in tokens or "none" in tokens:
        if len(tokens) != 1:
            raise ValueError("'all' and 'none' cannot be combined with other tokens")
        return TransformSet() if tokens[0] == "all" else TransformSet.none()
    log = exp = False
    degrees: list[int] = []
    for tok in tokens:
        if tok == "log":
            log = True
        elif tok == "exp":
            exp = True
        elif tok.startswith("poly"):
            try:
                degrees.append(int(tok[4:]))
            except ValueError:
                raise ValueError(f"bad polynomial token '{tok}'") from None
        else:
            raise ValueError(f"unknown transform token '{tok}'")
    return TransformSet(enable_log=log, poly_degrees=tuple(degrees), enable_exp=exp)


def parse_target(spec: str) -> tuple[str, str | None]:
    if spec == "captured":
        return "captured", None
    if spec.startswith("column:") and len(spec) > len("column:"):
        return "column", spec.split(":", 1)[1]
    raise ValueError(f"--target must be 'captured' or 'column:NAME', got '{spec}'")


def parse_replacement(spec: str) -> tuple[str, float]:
    if spec in ("mean", "zero"):
        return spec, 0.0
    for prefix in ("const:", "constant:"):
        if spec.startswith(prefix):
            try:
                value = float(spec[len(prefix) :])
                if math.isfinite(value):
                    return "constant", value
            except ValueError:
                pass
            raise ValueError(f"replacement constant in '{spec}' must be a finite number")
    raise ValueError(f"--replacement must be mean, zero, or const:VALUE, got '{spec}'")


def resolve_seed(flag_value: int | None) -> int:
    """The --seed flag, else $OPROJ_SEED, else 0; a negative seed is refused."""
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    else:
        env = os.environ.get(ENV_SEED, "0")
        try:
            seed, source = int(env), ENV_SEED
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got '{env}'") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _add_shared_audit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV (header row mandatory)")
    p.add_argument("--schema", help="sidecar schema file (column=role[:kind] lines)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="subprocess model command (CSV stdin/stdout)")
    group.add_argument(
        "--surrogate",
        choices=["ridge", "logistic"],
        help="fit a stand-in on the recorded target instead of querying a command",
    )
    p.add_argument(
        "--target",
        default="captured",
        help="'captured' (model output on the original data) or 'column:NAME'",
    )
    p.add_argument("--metric", choices=["mse", "accuracy"], default="mse")
    p.add_argument(
        "--threshold", type=float, default=0.5, help="binarization threshold (accuracy)"
    )
    p.add_argument(
        "--transforms",
        default="all",
        help="'all', 'none', or comma list of log, exp, poly<N>",
    )
    p.add_argument(
        "--replacement",
        default="mean",
        help="audited-column fill: mean, zero, or const:VALUE",
    )
    p.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip z-scoring before projection",
    )
    p.add_argument("--seed", type=int, default=None, help=f"default: ${ENV_SEED} or 0")
    p.add_argument("--timeout", type=float, default=60.0, help="subprocess seconds")
    p.add_argument(
        "--max-batch-rows", type=int, default=1_000_000, help="subprocess row cap"
    )
    p.add_argument("--ridge-lambda", type=float, default=1e-3)
    p.add_argument(
        "--check-repeatability",
        action="store_true",
        help="query the model twice up front and warn if replies differ",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oproj",
        description=(
            "Rank a black-box model's dependence on each input feature by "
            "projecting the other features onto the audited feature's "
            "orthogonal complement and re-querying the model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run an audit and write reports")
    _add_shared_audit_flags(p_audit)
    p_audit.add_argument("--out", default=".", help="output directory")
    p_audit.add_argument(
        "--format",
        default="json",
        help="comma list of json, csv, svg (json is always written)",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p_synth.add_argument("--spec", required=True, help="key=value spec file")
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_val = sub.add_parser(
        "validate", help="compare the audit against a brute-force refit oracle"
    )
    _add_shared_audit_flags(p_val)
    p_val.add_argument("--oracle", choices=["refit-loco"], default="refit-loco")
    return parser


def _prepare_audit_inputs(args, parser: argparse.ArgumentParser):
    """Shared setup for audit/validate: schema, data, model handle, config."""
    try:
        transforms = parse_transforms(args.transforms)
        target_mode, target_col = parse_target(args.target)
        replacement, replacement_value = parse_replacement(args.replacement)
        seed = resolve_seed(args.seed)
        metric = PerformanceMetric(kind=args.metric, threshold=args.threshold)
        if not 0 <= args.ridge_lambda < math.inf:
            raise ValueError(
                f"--ridge-lambda must be finite and >= 0, got {args.ridge_lambda}"
            )
        if args.model is not None:
            command = tuple(shlex.split(args.model))
            if not command:
                raise ValueError("--model command is empty")
            spec = SubprocessSpec(
                command, timeout=args.timeout, max_batch_rows=args.max_batch_rows
            )
    except ValueError as exc:
        parser.error(str(exc))

    schema = parse_schema_file(args.schema) if args.schema else DatasetSchema()
    if target_mode == "captured" and schema.target_column() is not None:
        parser.error(
            f"schema declares target column '{schema.target_column()}' "
            "but --target is 'captured'"
        )
    if target_mode == "column":
        schema = schema.with_target(target_col)
    if args.surrogate and target_mode != "column":
        parser.error("--surrogate needs a recorded target; pass --target column:NAME")

    X, y = load_csv(args.data, schema)
    if target_mode == "column" and y is None:
        raise OprojError(f"target column '{target_col}' not found in {args.data}")

    fidelity = None
    notes: tuple[str, ...] = ()
    if args.surrogate:
        fit = train_surrogate(X, y, args.surrogate, lam=args.ridge_lambda, seed=seed)
        handle = fit.handle
        fidelity = fit.fidelity
        if isinstance(fit.model, LogisticModel) and not fit.model.converged:
            notes = (
                f"logistic surrogate did not converge in {fit.model.iterations} "
                "iterations; the audit describes a stand-in that may fit poorly",
            )
        model_descriptor = f"surrogate:{args.surrogate}"
        # The recorded target trained the stand-in; the audit itself follows
        # the captured policy against the stand-in's own outputs.
        y_audit = None
        target_policy = "captured(surrogate)"
    else:
        handle = SubprocessModel(spec, feature_names=X.names)
        model_descriptor = f"subprocess:{args.model}"
        y_audit = y if target_mode == "column" else None
        target_policy = f"column:{target_col}" if target_mode == "column" else "captured"

    cfg = AuditConfig(
        metric=metric,
        transforms=transforms,
        replacement=replacement,
        replacement_value=replacement_value,
        standardize=not args.no_standardize,
        seed=seed,
        check_repeatability=args.check_repeatability,
    )
    return (
        X,
        y,
        y_audit,
        handle,
        fidelity,
        notes,
        schema,
        cfg,
        model_descriptor,
        target_policy,
    )


def cmd_audit(args, parser: argparse.ArgumentParser) -> int:
    formats = {f.strip().lower() for f in args.format.split(",") if f.strip()}
    unknown = formats - {"json", "csv", "svg"}
    if unknown:
        parser.error(f"unknown --format values: {sorted(unknown)}")
    (
        X,
        _y,
        y_audit,
        handle,
        fidelity,
        notes,
        schema,
        cfg,
        model_descriptor,
        target_policy,
    ) = _prepare_audit_inputs(args, parser)

    report = rank_all(handle, X, cfg, y=y_audit)
    report = replace(report, warnings=notes + report.warnings)
    doc = build_document(
        report,
        target_policy=target_policy,
        model_descriptor=model_descriptor,
        data_descriptor=args.data,
        fidelity=fidelity,
        groups=aggregate_categorical_groups(report, schema),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [write_json(doc, out_dir / "report.json")]
    if "csv" in formats:
        written.append(write_csv(doc, out_dir / "report.csv"))
    if "svg" in formats:
        written.append(write_svg(doc, out_dir / "report.svg"))
    for path in written:
        print(f"wrote {path}")
    top = report.entries[0]
    if top.error is None:
        print(f"most dependent feature: {top.name} (normalized {top.normalized:g})")
    return 0


def cmd_synth(args, parser: argparse.ArgumentParser) -> int:
    spec = parse_synthetic_spec(args.spec)
    X, y, order = generate_synthetic(spec)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(X, out, target=y)
    truth = out.with_name(out.name + ".truth")
    lines = [
        f"# ground truth for {out.name}",
        f"n={spec.n}",
        f"names={','.join(spec.names)}",
        f"coefficients={','.join(repr(c) for c in spec.coefficients)}",
        f"noise_sd={spec.noise_sd!r}",
        f"seed={spec.seed}",
    ]
    for term in spec.nonlinear:
        lines.append(f"nonlinear={term.feature},{term.kind},{term.coefficient!r}")
    if order is not None:
        lines.append(f"importance_order={','.join(order)}")
    else:
        lines.append("importance_order=unknown (nonlinear terms present)")
    truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"wrote {truth}")
    return 0


def cmd_validate(args, parser: argparse.ArgumentParser) -> int:
    (
        X,
        y,
        _y_audit,
        handle,
        _fidelity,
        notes,
        _schema,
        cfg,
        _model_descriptor,
        _target_policy,
    ) = _prepare_audit_inputs(args, parser)

    # Both routes score against the same reference target: the recorded
    # column, or the output that rank_all captures with its first query.
    report = rank_all(handle, X, cfg, y=y)
    report = replace(report, warnings=notes + report.warnings)
    loco = loco_refit_importances(X, report.target, lam=args.ridge_lambda)

    names = [e.name for e in report.entries if e.error is None]
    audit_deltas = [report.entry(n).raw_delta for n in names]
    loco_values = [loco[n] for n in names]

    width = max(len(n) for n in names)
    print(f"{'feature':<{width}}  {'audit_delta':>14}  {'loco_refit':>14}")
    for name, audit_delta, refit in zip(names, audit_deltas, loco_values):
        print(f"{name:<{width}}  {audit_delta:>14.6g}  {refit:>14.6g}")
    rho = spearman_rank_correlation(audit_deltas, loco_values)
    print(f"spearman={rho:.6g}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            return cmd_audit(args, parser)
        if args.command == "synth":
            return cmd_synth(args, parser)
        return cmd_validate(args, parser)
    except SyntheticSpecError as exc:
        print(f"oproj: invalid synthetic spec: {exc}", file=sys.stderr)
        return 2
    except (OprojError, ValueError) as exc:
        print(f"oproj: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        if args.command == "synth":
            print(f"oproj: invalid synthetic spec: {exc}", file=sys.stderr)
            return 2
        print(f"oproj: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
