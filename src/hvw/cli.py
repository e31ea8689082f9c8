"""Command line front end.

Subcommands: check, construct, equiv, nogo, classify, canon, random. Output
is deterministic for fixed inputs, so runs can be diffed byte for byte.

Exit codes follow one convention everywhere: 0 means the property holds, the
models are equivalent, the membership test is feasible, or the command simply
succeeded; 1 means the property fails, the models differ, the system is
infeasible, or an impossibility argument was confirmed; 2 means the command
line or the input could not be used at all.

Output has one path. Each subcommand does its work, saves any file named by
--out, and returns its exit code, its JSON payload (the result objects, not
yet encoded) and a function that renders its text. `main` alone writes
stdout: the payload through the codec's encoder under --format json, else the
text. canon and random have no payload and print the model file under either
format. A run renders only the format it prints, and any failure up to and
including the write exits 2.

The size guard for combinatorial enumerations applies to construct, nogo,
classify and random, the subcommands that enumerate. It resolves in this
order: the --guard flag, the HVW_GUARD environment variable, then the
built-in default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NoReturn, Sequence

from .classify import ClassificationReport, classify_all
from .codec import _encode, write_json
from .constructions import ConstructionMethod, construct
from .errors import InputError, WorkbenchError, check_size, show_text, show_value
from .models import (
    DEFAULT_GUARD,
    Model,
    PropertyVerdict,
    as_empirical,
    equivalent_empirical,
    equivalent_models,
)
from .modelio import load_model, save_model, serialize_model
from .nogo import (
    BellReport,
    EprReport,
    KsReport,
    canonical_model,
    epr_escape_hvm,
    verify_bell,
    verify_epr,
    verify_ks,
)
from .properties import PropertyId, check_property
from .randgen import generate_random_model, grid_sites

GUARD_ENV_VAR = "HVW_GUARD"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# Longest usage error, in UTF-8 bytes, printed whole. argparse echoes a bad
# token in full, so longer messages are cut. The longest one with a
# one-character token (check's --property choice list) has 241 bytes; a cut
# `canon` error, with its two usage lines, stays under 400 bytes.
_MAX_USAGE_MESSAGE = 270


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout, with lines broken at spaces, never at hyphens."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        import textwrap  # as in argparse, only when help is printed
        return textwrap.wrap(self._whitespace_matcher.sub(" ", text).strip(), width, break_on_hyphens=False)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with an over-long usage error cut short and help
    from `_HelpFormatter`. Subparsers are built from the same class."""

    def __init__(self, **kwargs: object) -> None:
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message: str) -> NoReturn:
        super().error(show_text(message, _MAX_USAGE_MESSAGE))


def _positive_int(raw: str) -> int:
    """The positive-integer rule of --guard, the shape flags and HVW_GUARD."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {show_value(raw)}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {show_value(value)}")
    return value


def _resolve_guard(flag: int | None) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(GUARD_ENV_VAR)
    if not raw:
        return DEFAULT_GUARD
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{GUARD_ENV_VAR} {exc}") from None


_Result = tuple[int, dict | None, Callable[[], str]]


def _verdict_lines(name: str, verdict: PropertyVerdict, indent: str = "") -> list[str]:
    if verdict.holds:
        return [f"{indent}{name}: holds"]
    assert verdict.witness is not None
    return [f"{indent}{name}: fails", f"{indent}  {verdict.witness.describe()}"]


def _verdict_result(name: str, verdict: PropertyVerdict, payload: dict) -> _Result:
    code = EXIT_OK if verdict.holds else EXIT_NEGATIVE
    return code, payload, lambda: "\n".join(_verdict_lines(name, verdict)) + "\n"


def _model_output(model: Model, out: str | None) -> Callable[[], str]:
    """The one writer of a model: save it to `out` now and print nothing, or,
    with no `out`, print its file text."""
    if out is None:
        return functools.partial(serialize_model, model)
    save_model(model, out)
    return lambda: ""


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_check(args: argparse.Namespace) -> _Result:
    verdict = check_property(load_model(args.model), args.property)
    payload = {"command": "check", "property": args.property, "verdict": verdict}
    return _verdict_result(args.property, verdict, payload)


def _cmd_construct(args: argparse.Namespace) -> _Result:
    source = as_empirical(load_model(args.model), "construct")
    hvm = construct(source, ConstructionMethod(args.method), guard=_resolve_guard(args.guard))
    if not equivalent_empirical(source, hvm).holds:
        raise AssertionError("constructed model disagrees with its source")
    states = len(hvm.lambda_set)
    payload = {"command": "construct", "method": args.method, "lambda_size": states, "equivalent": True}
    text = _model_output(hvm, args.out)
    if args.out is None:
        payload["model"] = hvm
    else:
        payload["out"] = args.out
        text = lambda: f"{args.method}: wrote equivalent completion with {states} hidden states to {args.out}\n"
    return EXIT_OK, payload, text


def _cmd_equiv(args: argparse.Namespace) -> _Result:
    verdict = equivalent_models(load_model(args.left), load_model(args.right))
    return _verdict_result("equivalent", verdict, {"command": "equiv", "verdict": verdict})


def _nogo_text(lines: list[str], confirmed: bool, claim: str) -> str:
    """A no-go report's lines, closed by its one conclusion line."""
    conclusion = f"no-go confirmed: {claim}" if confirmed else "no-go NOT confirmed"
    return "\n".join([*lines, conclusion]) + "\n"


def _epr_text(report: EprReport) -> str:
    lines = ["single-state completion of the anti-correlated pair:"]
    lines.append(f"  p(a=+_a | a=A, b=B, λ) = {report.marginal}")
    lines.append(f"  p(a=+_a | a=A, b=B, b=-_b, λ) = {report.pinned_by_partner}")
    lines.extend(_verdict_lines("outcome independence", report.oi_single_state, "  "))
    lines.append("two-state escape (single-valuedness dropped):")
    lines.extend(_verdict_lines("strong determinism", report.escape_sd, "  "))
    lines.extend(_verdict_lines("lambda independence", report.escape_li, "  "))
    lines.extend(_verdict_lines("outcome independence", report.escape_oi, "  "))
    lines.extend(_verdict_lines("matches the original", report.escape_equivalent, "  "))
    claim = "single-valuedness and outcome independence cannot hold together on this model"
    return _nogo_text(lines, report.confirmed, claim)


def _bell_text(report: BellReport) -> str:
    lines = []
    if report.certificate is not None:
        cert = report.certificate
        lines.append("counting certificate over response atoms 1..8:")
        for eq in cert.equations:
            atoms = ",".join(str(a) for a in eq.atoms)
            lines.append(
                f"  directions ({eq.i},{eq.j}): p{{{atoms}}} = "
                f"{eq.plus_plus} + {eq.minus_minus} = {eq.rhs}"
            )
        twice = "yes" if cert.atoms_counted_twice else "no"
        lines.append(
            f"  every atom counted twice: {twice}; equations sum to "
            f"2 x {cert.aggregate_value}, so total atom mass {cert.aggregate_value} > 1: "
            + ("impossible" if cert.impossible else "not settled")
        )
    if report.polytope is not None:
        poly = report.polytope
        lines.append("deterministic-mixture membership:")
        lines.append(f"  strategies enumerated: {poly.strategy_count}")
        if poly.feasible:
            lines.append("  feasible: the model is a mixture of deterministic strategies")
        else:
            lines.append(
                "  infeasible: a verified separating certificate rules out every mixture"
            )
    lines.append("single-state completion keeps LI and PI but not OI:")
    escape = report.escape
    lines.extend(_verdict_lines("lambda independence", escape.li, "  "))
    lines.extend(_verdict_lines("parameter independence", escape.pi, "  "))
    lines.extend(_verdict_lines("outcome independence", escape.oi, "  "))
    lines.append(
        f"  p(A=+ | A=1, B=1, B=-, λ) = {escape.conditional_with_partner} vs "
        f"p(A=+ | A=1, B=1, λ) = {escape.conditional_alone}"
    )
    claim = "no lambda-independent completion of this model satisfies both independence conditions"
    return _nogo_text(lines, report.confirmed, claim)


def _ks_text(report: KsReport) -> str:
    lines = []
    lines.extend(_verdict_lines("exchangeability", report.exchangeability))
    ok = "yes" if report.winner_pattern_ok else "no"
    lines.append(f"each context selects exactly one winning label: {ok}")
    lines.extend(_verdict_lines("non-contextuality", report.non_contextuality))
    if report.coloring_count is not None:
        lines.append(
            f"coloring search: {report.coloring_count} valid colorings among "
            f"{report.coloring_candidates} winner patterns"
        )
    if report.parity is not None:
        parity = report.parity
        even = "all even" if parity.all_counts_even else "not all even"
        odd = "odd" if parity.column_count_odd else "even"
        lines.append(
            f"parity certificate: label occurrence counts {even}, "
            f"column count {parity.column_count} is {odd}: {parity.verdict}"
        )
    claim = "no context-free 0/1 assignment reproduces this model"
    return _nogo_text(lines, report.confirmed, claim)


def _cmd_nogo(args: argparse.Namespace) -> _Result:
    guard = _resolve_guard(args.guard)
    if args.argument == "epr":
        if args.method is not None:
            raise InputError("the epr argument has a single method; omit --method")
        report, render = verify_epr(), _epr_text
    elif args.argument == "bell":
        report, render = verify_bell(method=args.method or "both", guard=guard), _bell_text
    else:
        report, render = verify_ks(method=args.method or "both", guard=guard), _ks_text
    payload = {"command": "nogo", "argument": args.argument, "report": report}
    return (EXIT_NEGATIVE if report.confirmed else EXIT_OK), payload, functools.partial(render, report)


def _classification_text(report: ClassificationReport) -> str:
    lines = ["regions (implication-closed property sets):"]
    for entry in report.regions:
        region = "{" + ", ".join(entry.verdict.region) + "}" if entry.verdict.region else "{}"
        lines.append(f"  {region}: {entry.note}")
        for evidence in entry.evidence:
            held = "holds" if evidence.all_hold else "FAILS"
            match = "equivalent" if evidence.equivalent else "NOT equivalent"
            lines.append(
                f"    checked on sample via {evidence.method}: "
                f"every region property {held}, completion {match}"
            )
    lines.append(
        f"achievable: {report.achievable_count}, impossible: {report.impossible_count}"
    )
    lines.append(report.split_note)
    return "\n".join(lines) + "\n"


def _cmd_classify(args: argparse.Namespace) -> _Result:
    guard = _resolve_guard(args.guard)
    sample = None if args.sample is None else as_empirical(load_model(args.sample), "classify --sample")
    report = classify_all(sample=sample, guard=guard)
    return EXIT_OK, {"command": "classify", "report": report}, functools.partial(_classification_text, report)


def _cmd_canon(args: argparse.Namespace) -> _Result:
    model = epr_escape_hvm() if args.name == "epr-escape" else canonical_model(args.name)
    return EXIT_OK, None, _model_output(model, args.out)


def _cmd_random(args: argparse.Namespace) -> _Result:
    if args.seed is None:
        raise InputError("the random command requires --seed")
    guard = _resolve_guard(args.guard)
    # Building the sites checks s * (m + o) labels, which the table's guard does not bound.
    check_size("random model site list", args.sites * (args.measurements + args.outcomes), guard)
    sites = grid_sites(args.sites, args.measurements, args.outcomes)
    model = generate_random_model(args.seed, sites, lambda_size=args.hidden, guard=guard)
    return EXIT_OK, None, _model_output(model, args.out)


# ---------------------------------------------------------------------------
# Parser assembly


def _common_options() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """Parent parsers: --format for every subcommand, and --format with
    --guard for the four that enumerate (construct, nogo, classify, random)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output rendering (default: text)",
    )
    guarded = argparse.ArgumentParser(add_help=False, parents=[common])
    guarded.add_argument(
        "--guard",
        type=_positive_int,
        default=None,
        metavar="N",
        help=f"size cap for enumerations (default: ${GUARD_ENV_VAR} or {DEFAULT_GUARD})",
    )
    return common, guarded


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process. It holds no per-call
    state: argparse looks up `sys.stderr` and the help width when it prints,
    and the guard reads HVW_GUARD when a command runs."""
    parser = _Parser(
        prog="hvw",
        description="Exact workbench for finite hidden-variable models.",
    )
    common, guarded = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="test one property of a model file"
    )
    p_check.add_argument("model", help="path to a model file")
    p_check.add_argument(
        "--property",
        required=True,
        choices=tuple(p.value for p in PropertyId),
        metavar="PROPERTY",
        help="property to test: %(choices)s",
    )
    p_check.set_defaults(func=_cmd_check)

    p_construct = sub.add_parser(
        "construct", parents=[guarded], help="complete an empirical model with hidden states"
    )
    p_construct.add_argument("model", help="path to a model file")
    p_construct.add_argument(
        "--method",
        required=True,
        choices=tuple(m.value for m in ConstructionMethod),
        metavar="METHOD",
        help="completion to apply: %(choices)s",
    )
    p_construct.add_argument("--out", default=None, help="write the result here")
    p_construct.set_defaults(func=_cmd_construct)

    p_equiv = sub.add_parser(
        "equiv", parents=[common], help="compare the predictions of two model files"
    )
    p_equiv.add_argument("left", help="path to a model file")
    p_equiv.add_argument("right", help="path to a model file")
    p_equiv.set_defaults(func=_cmd_equiv)

    p_nogo = sub.add_parser(
        "nogo", parents=[guarded], help="rerun one of the impossibility arguments"
    )
    p_nogo.add_argument("argument", choices=("epr", "bell", "ks"))
    p_nogo.add_argument(
        "--method",
        default=None,
        help="bell: certificate|polytope|both; ks: coloring|parity|both",
    )
    p_nogo.set_defaults(func=_cmd_nogo)

    p_classify = sub.add_parser(
        "classify",
        parents=[guarded],
        help="classify all property regions as achievable or impossible",
    )
    p_classify.add_argument(
        "--sample",
        default=None,
        help="model file to recheck achievable regions against",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_canon = sub.add_parser(
        "canon", parents=[common], help="emit one of the built-in models"
    )
    p_canon.add_argument("name", choices=("epr", "bell", "ks", "epr-escape"))
    p_canon.add_argument("--out", default=None, help="write the model here")
    p_canon.set_defaults(func=_cmd_canon)

    p_random = sub.add_parser(
        "random", parents=[guarded], help="generate a reproducible random model"
    )
    p_random.add_argument("--seed", type=int, default=None, help="generator seed (required)")
    p_random.add_argument("--sites", type=_positive_int, default=2)
    p_random.add_argument("--measurements", type=_positive_int, default=2)
    p_random.add_argument("--outcomes", type=_positive_int, default=2)
    p_random.add_argument(
        "--hidden",
        type=_positive_int,
        default=None,
        help="hidden state count; omit for an empirical model",
    )
    p_random.add_argument("--out", default=None, help="write the model here")
    p_random.set_defaults(func=_cmd_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
        return EXIT_OK if code == 0 else EXIT_ERROR
    func: Callable[[argparse.Namespace], _Result] = args.func
    try:
        code, payload, text = func(args)
        if args.format == "json" and payload is not None:
            sys.stdout.write(write_json({key: _encode(value) for key, value in payload.items()}) + "\n")
        else:
            sys.stdout.write(text())
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
