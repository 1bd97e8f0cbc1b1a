"""Command-line front end.

Commands (selected with --command):
  analyze  read one JSON density matrix, emit the full analysis report
  sample   seeded Monte Carlo campaign over a state family, CSV or JSON
  verify   run the identity suite (closed forms vs independent routes)
  fig2     sample family=fig2 plus a companion file of the E-C bound lines
  ddim     d-level identity subset and numeric-fef spot checks

Exit codes: analyze uses 2 (unparseable input), 3 (density invariant
violated, including non-finite entries and any shape but 4x4), 4 (internal
identity mismatch); sample/fig2 use 5 (bound check failed); verify/ddim use
1 (identity failures); 0 means success.  A --seed outside [0, 2^64) is a
usage error, exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import campaign
from .applications import analyze_state
from .errors import DensityMatrixError, EntfracError, IdentityCheckError
from .optimize import SearchBudget
from .states import SEED_LIMIT, load_density_json
from .verify import format_report, run_ddim_suite, run_identity_suite

EXIT_OK = 0
EXIT_IDENTITY_SUITE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IDENTITY_MISMATCH = 4
EXIT_BOUND_VIOLATION = 5

# per-command default for --count when the flag is absent
_DEFAULT_COUNT = {"analyze": 1, "sample": 1000, "verify": 200, "fig2": 1000, "ddim": 10}

_REPORT_KEYS = (
    ("F", "f"),
    ("E", "e"),
    ("C", "c"),
    ("F_DC", "f_dc"),
    ("F_DC_max", "f_dc_max"),
    ("F_T", "f_t"),
    ("F_T_max", "f_t_max"),
    ("F_ES", "f_es"),
    ("F_ES_max", "f_es_max"),
    ("B_canonical", "b_canonical"),
    ("B_max_angles", "b_max_angles"),
    ("B_max_unitaries", "b_max_unitaries"),
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    count: int
    input_path: str | None
    output_path: str | None
    format: str
    family: str
    workers: int
    budget: SearchBudget | None
    quick: bool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entfrac",
        description="entanglement measures and protocol fidelities for two-qubit states",
    )
    parser.add_argument(
        "--command",
        required=True,
        choices=("analyze", "sample", "verify", "fig2", "ddim"),
    )
    parser.add_argument("--in", dest="input", metavar="PATH", help="input density matrix (JSON)")
    parser.add_argument("--out", dest="output", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=None, help="rows or sample size (per-command default)")
    parser.add_argument(
        "--family",
        choices=campaign.FAMILIES,
        default="raw",
        help="state family for sample (fig2 command forces fig2)",
    )
    parser.add_argument("--workers", type=int, default=1, help="sampling worker processes")
    parser.add_argument(
        "--budget",
        type=int,
        choices=(1, 2, 3),
        default=None,
        help="search effort (starts, step cap) of the CHSH maxima and the verify/ddim F ascent",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="verify/ddim: small sample, numeric-search tolerances loosened to 1e-5",
    )
    return parser


def parse_config(argv) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    count = args.count
    if count is None:
        count = _DEFAULT_COUNT[args.command]
        if args.quick and args.command in ("verify", "ddim"):
            count = 10
    if count < 1:
        parser.error(f"--count must be >= 1, got {count}")
    if not 0 <= args.seed < SEED_LIMIT:
        parser.error(f"--seed must lie in [0, 2^64), got {args.seed}")
    if args.command == "analyze" and not args.input:
        parser.error("--command analyze requires --in")
    if args.command == "fig2" and not args.output:
        parser.error("--command fig2 requires --out (a companion bounds file is written next to it)")
    budget = None if args.budget is None else SearchBudget.from_level(args.budget)
    return RunConfig(
        command=args.command,
        seed=args.seed,
        count=count,
        input_path=args.input,
        output_path=args.output,
        format=args.format,
        family="fig2" if args.command == "fig2" else args.family,
        workers=args.workers,
        budget=budget,
        quick=args.quick,
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _report_text(report, fmt: str) -> str:
    pairs = [(name, getattr(report, attr)) for name, attr in _REPORT_KEYS]
    if fmt == "json":
        return json.dumps({k: v for k, v in pairs}, indent=2) + "\n"
    header = ",".join(k for k, _ in pairs)
    row = ",".join(f"{v:.12g}" for _, v in pairs)
    return header + "\n" + row + "\n"


def _invalid_state(exc: DensityMatrixError) -> int:
    print(f"invalid state: violated invariant(s): {', '.join(exc.violations)}", file=sys.stderr)
    return EXIT_INVARIANT


def _cmd_analyze(config: RunConfig) -> int:
    try:
        rho = load_density_json(config.input_path)
    except DensityMatrixError as exc:
        return _invalid_state(exc)
    except (OSError, ValueError) as exc:
        print(f"cannot read {config.input_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        # a valid state of any other dimension fails here, on shape
        report = analyze_state(rho, budget=config.budget)
    except DensityMatrixError as exc:
        return _invalid_state(exc)
    except IdentityCheckError as exc:
        print(f"internal identity mismatch: {exc}", file=sys.stderr)
        return EXIT_IDENTITY_MISMATCH
    _emit(_report_text(report, config.format), config.output_path)
    return EXIT_OK


def _sampling_budget(config: RunConfig) -> SearchBudget:
    return config.budget if config.budget is not None else campaign.SAMPLER_BUDGET


def _cmd_sample(config: RunConfig) -> int:
    records = campaign.run_campaign(
        config.count,
        seed=config.seed,
        family=config.family,
        workers=config.workers,
        budget=_sampling_budget(config),
    )
    if config.format == "json":
        text = json.dumps(campaign.records_json(records), indent=2) + "\n"
    else:
        text = campaign.records_csv(records)
    _emit(text, config.output_path)
    if config.command == "fig2":
        _emit(campaign.bound_lines_csv(101), _bounds_path(config.output_path))
    offender = campaign.first_bound_violation(records)
    if offender is not None:
        print(
            "bound check failed at index {0}: E={1:.12g} C={2:.12g} "
            "(family={3}, seed={4}; rerun with --family {3} --seed {4} to reproduce)".format(
                offender.index, offender.e, offender.c, offender.family, config.seed
            ),
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _bounds_path(out_path: str) -> str:
    stem, dot, ext = out_path.rpartition(".")
    if dot and "/" not in ext:
        return f"{stem}_bounds.{ext}"
    return out_path + "_bounds.csv"


def _cmd_verify(config: RunConfig) -> int:
    results = run_identity_suite(
        count=config.count,
        seed=config.seed,
        budget=config.budget,
        quick=config.quick,
    )
    _emit(format_report(results), config.output_path)
    return EXIT_OK if all(r.passed for r in results) else EXIT_IDENTITY_SUITE


def _cmd_ddim(config: RunConfig) -> int:
    results = run_ddim_suite(
        count=config.count,
        seed=config.seed,
        budget=config.budget,
        quick=config.quick,
    )
    _emit(format_report(results), config.output_path)
    return EXIT_OK if all(r.passed for r in results) else EXIT_IDENTITY_SUITE


def main(argv=None) -> int:
    config = parse_config(argv)
    handler = {
        "analyze": _cmd_analyze,
        "sample": _cmd_sample,
        "fig2": _cmd_sample,
        "verify": _cmd_verify,
        "ddim": _cmd_ddim,
    }[config.command]
    try:
        return handler(config)
    except EntfracError as exc:
        # anything not mapped above is a usage-level failure, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())
