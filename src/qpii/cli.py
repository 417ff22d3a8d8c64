"""Command-line entry point.

Subcommands: ``derive`` (symbolic pipelines), ``quasidet`` (evaluate the
positions of an input matrix), ``darboux`` (run a dressing config),
``selftest`` (acceptance suite).  JSON is the machine format; the text
format is rendered from the same structure.  Exit codes: 0 success,
1 computation error (a structured error report is still emitted) or a
``selftest`` outcome its pinned expected failures do not allow (the full
report is still emitted), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import QpiiError
from .quasidet import QuasidetError, all_quasideterminants, load_matrix_json
# jsonable is not called here, but the benchmark tracer wraps qpii.cli.jsonable
from .reportio import dumps, jsonable, render_text  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpii",
        description=(
            "Exact zero-curvature derivations, quasideterminants, and "
            "numeric dressing chains for the deformed second Painlevé system."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format (default: json)",
    )
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="run a symbolic derivation")
    p_derive.add_argument(
        "target",
        choices=("qpii", "riccati", "symmetric"),
        help="which derivation to run",
    )

    p_quasi = sub.add_parser("quasidet", help="evaluate quasideterminants of a matrix")
    p_quasi.add_argument("--input", required=True, help="JSON matrix file")
    p_quasi.add_argument(
        "--position",
        nargs=2,
        type=int,
        metavar=("ROW", "COL"),
        help="evaluate one 0-based position instead of all",
    )

    p_darboux = sub.add_parser("darboux", help="run a dressing-chain config")
    p_darboux.add_argument("--config", required=True, help="JSON config file")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument(
        "--seed",
        type=int,
        help="seed for the randomized property criteria (echoed in the report)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    return build_parser()


def _emit(report: dict, fmt: str, output: str | None) -> None:
    text = dumps(report) if fmt == "json" else render_text(report) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_derive(target: str) -> dict:
    # the symbolic engine is loaded by the only command that uses it
    from . import laxderive as lax
    from .ncalg import default_algebra

    alg = default_algebra()
    if target == "qpii":
        system = lax.derive_qpii(alg)
        return {
            "command": "derive qpii",
            "ode": system.ode.to_text(),
            "constraint": system.constraint.to_text(),
            "report": system.report.to_dict(),
        }
    if target == "riccati":
        poly, report = lax.riccati_derivation(alg)
        return {"command": "derive riccati", "expression": poly.to_text(), "report": report}
    report = lax.symmetric_relations_report(alg)
    return {"command": "derive symmetric", "value": report["lemma_value"], "report": report}


def _load_document(path: str, error: type[QpiiError]):
    """The decoded JSON document at ``path``; one nested too deeply for the
    decoder raises ``error`` rather than ``RecursionError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise error("document nests too deeply to decode") from exc


def _run_quasidet(args) -> dict:
    doc = _load_document(args.input, QuasidetError)
    matrix = load_matrix_json(doc)
    carrier_name = type(matrix.carrier).__name__
    if args.position:
        i, j = args.position
        from .quasidet import quasideterminant_expand

        value = quasideterminant_expand(matrix, i, j)
        positions = {f"{i},{j}": value}
    else:
        positions = {f"{i},{j}": v for (i, j), v in all_quasideterminants(matrix).items()}
    report = {
        "command": "quasidet",
        "input": args.input,
        "n": matrix.n,
        "carrier": carrier_name,
        "positions": positions,
        "position_count": len(positions),
    }
    if carrier_name == "ExactScalarCarrier":
        from .quasidet import commutative_reduction

        cells = [f"{i},{j}" for i in range(matrix.n) for j in range(matrix.n)]
        report["commutative_reduction"] = {
            cell: "vacuous-singular" if out is None else out
            for cell, out in zip(cells, commutative_reduction(matrix))
        }
    return report


def _run_darboux(args) -> dict:
    from . import darboux as dbx

    doc = _load_document(args.config, dbx.ConfigError)
    config = dbx.DarbouxConfig.from_json(doc)
    report = dbx.run_config(config)
    report["command"] = "darboux"
    return report


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    code = 0
    try:
        if args.command == "derive":
            report = _run_derive(args.target)
        elif args.command == "quasidet":
            report = _run_quasidet(args)
        elif args.command == "darboux":
            report = _run_darboux(args)
        else:
            from . import acceptance

            seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
            report = acceptance.run_all(seed=seed)
            report["command"] = "selftest"
            for criterion in report["criteria"]:
                status = "PASS" if criterion["pass"] else "FAIL"
                if not criterion["pass"] and criterion["id"] in acceptance.EXPECTED_FAILURES:
                    status += " (expected)"
                sys.stderr.write(
                    f"criterion {criterion['id']:>2} ({criterion['name']}): {status}\n"
                )
            for line in report["unexpected"]:
                sys.stderr.write(f"unexpected: {line}\n")
            code = 1 if report["unexpected"] else 0
    # JSONDecodeError is a ValueError; a grid too large to allocate is a MemoryError
    except (QpiiError, OSError, ValueError, MemoryError) as exc:
        report = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "command": args.command,
        }
        code = 1
    try:
        _emit(report, args.format, args.output)
    except OSError as exc:
        # no report can be delivered, so this is a usage error, not exit 1
        sys.stderr.write(f"qpii: cannot write the report: {exc}\n")
        return 2
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
