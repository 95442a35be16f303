"""Command-line front end.

Exit codes: 0 for a Valid verdict (and any successful non-check command),
1 for Invalid, 2 for errors, unsupported requests, and bad input.

Each subcommand imports the modules it uses when it runs, so a call loads
only those: ``reduce`` and ``degscan`` never load the checkers, ``check``
never the bounds.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .core import (
    CapExceeded,
    ConsistencyError,
    DomainError,
    DslError,
    UnsupportedSemantics,
    _csv_rows,
    _split_names,
    evaluate,
    parse_fraction,
)

if TYPE_CHECKING:
    from .validity import Verdict, Witness

JSON_SCHEMA_VERSION = 1
WITNESS_TABLE_MAX_N = 12


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _float(value: Fraction | float) -> float:
    """float(value), or +-inf when value lies past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nonzero_values(witness: Witness) -> Optional[list[tuple[str, Fraction]]]:
    """(label, value) of each set the witness does not map to 0, or None
    past WITNESS_TABLE_MAX_N variables."""
    fn = witness.function
    if fn.universe.n > WITNESS_TABLE_MAX_N:
        return None
    return [
        (fn.universe.label(m), value)
        for m in range(1, fn.universe.full_mask + 1)
        if (value := fn[m])
    ]


def _witness_payload(witness: Witness) -> dict:
    uni = witness.function.universe
    payload: dict = {"kind": witness.kind, "description": witness.describe()}
    if witness.step_set is not None:
        payload["step_set"] = uni.label(witness.step_set)
    if witness.generators:
        payload["generators"] = [uni.label(g) for g in witness.generators]
    if witness.variable is not None:
        payload["variable"] = witness.variable
    table = _nonzero_values(witness)
    if table is not None:
        payload["nonzero"] = {label: str(value) for label, value in table}
    return payload


def _certificate_lines(verdict: Verdict) -> list[str]:
    uni = verdict.certificate.universe
    lines = []
    for weight, axiom in verdict.certificate.parts:
        if axiom.kind == "nonneg":
            lines.append(f"{weight} * NonNeg({uni.label(axiom.sup)})")
        else:
            lines.append(
                f"{weight} * Mono({uni.label(axiom.sup)} >= "
                f"{uni.label(axiom.sub)})"
            )
    return lines


def _provenance(verdict: Verdict) -> dict:
    prov: dict = {"method": verdict.method}
    if verdict.iterations is not None:
        prov["iterations"] = verdict.iterations
    if verdict.lp_shape is not None:
        prov["lp_rows"], prov["lp_cols"] = verdict.lp_shape
    return prov


def _print_witness(witness: Witness) -> None:
    print(f"witness: {witness.describe()}")
    for label, value in _nonzero_values(witness) or ():
        print(f"  {label}: {value}")


def cmd_check(args: argparse.Namespace) -> int:
    import json

    from .dsl import parse_inequality
    from .validity import check

    expr = parse_inequality(_read(args.file))
    verdict = check(expr, args.semantics)
    if args.json:
        doc: dict = {
            "schema": JSON_SCHEMA_VERSION,
            "command": "check",
            "valid": verdict.valid,
            "classes": list(verdict.semantics),
            "provenance": _provenance(verdict),
        }
        if verdict.witness is not None:
            doc["witness"] = _witness_payload(verdict.witness)
        if verdict.certificate is not None and args.certificate:
            doc["certificate"] = _certificate_lines(verdict)
        if verdict.per_class is not None:
            doc["per_class"] = {
                name: {"valid": sub.valid, "method": sub.method}
                for name, sub in verdict.per_class.items()
            }
        print(json.dumps(doc, indent=2))
    else:
        state = "Valid" if verdict.valid else "Invalid"
        print(f"{state} over {', '.join(verdict.semantics)}")
        if verdict.per_class is not None:
            for name, sub in verdict.per_class.items():
                print(f"  {name}: {'Valid' if sub.valid else 'Invalid'}")
        if args.certificate:
            if verdict.certificate is not None:
                print("certificate:")
                for line in _certificate_lines(verdict):
                    print(f"  {line}")
            else:
                print("certificate: none recorded")
        if args.witness and verdict.witness is not None:
            _print_witness(verdict.witness)
    return 0 if verdict.valid else 1


_BOUND_METHODS = {
    "modular": "logbound_modular",
    "simple": "logbound_simple_entropic",
    "polymatroid": "logbound_polymatroid_dual",
    "step": "logbound_step",
}


def cmd_bound(args: argparse.Namespace) -> int:
    import json

    from . import bounds

    query, sigma = bounds.parse_constraints(_read(args.file))
    method = args.method
    if method == "auto":
        if bounds.is_simple(sigma):
            method = "simple"
        elif bounds.is_acyclic(sigma):
            method = "modular"
        else:
            method = "polymatroid"
            print(
                "note: cyclic, non-simple system; solving an "
                f"exponential-size program over {sigma.universe.n} variables",
                file=sys.stderr,
            )
    result = getattr(bounds, _BOUND_METHODS[method])(query, sigma)
    value_text = "inf" if not result.is_finite else str(result.value)
    if args.json:
        doc = {
            "schema": JSON_SCHEMA_VERSION,
            "command": "bound",
            "method": result.method,
            "value": value_text,
            "value_float": _float(result.value),  # display only
            "linear_value": result.linear_value(),
        }
        if result.weights is not None:
            doc["weights"] = [str(w) for w in result.weights]
        if result.lp_shape is not None:
            doc["lp_rows"], doc["lp_cols"] = result.lp_shape
        print(json.dumps(doc, indent=2))
    else:
        print(f"log-bound: {value_text}")
        if result.weights is not None:
            print(f"weights: {' '.join(str(w) for w in result.weights)}")
        print(f"2^value: {result.linear_value()}")
    return 0


# kind: (instance parser, reduction), both in `reductions`
_REDUCERS = {
    "monsat3": ("parse_monsat", "from_3dmonsat"),
    "coloring": ("parse_graph", "from_3coloring"),
    "partition": ("parse_partition", "from_partition"),
}


def cmd_reduce(args: argparse.Namespace) -> int:
    from . import reductions
    from .dsl import format_inequality

    parse, build = (getattr(reductions, name) for name in _REDUCERS[args.kind])
    expr = build(parse(_read(args.file)))
    text = format_inequality(expr) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .dsl import parse_inequality
    from .functions import _marginal_entropy, distribution_from_csv

    expr = parse_inequality(_read(args.ineq))
    data = _read(args.data)
    rows = _csv_rows(data)
    first = rows[0] if rows else []
    if first and first[-1] == "prob":
        dist = distribution_from_csv(data)
        total = sum(
            coeff * Fraction(_marginal_entropy(
                dist, dist.universe.mask(expr.universe.names_of(m))
            ))
            for m, coeff in expr.terms.items()
        )
        print(_float(total))
    elif first == ["set", "value"]:
        values: dict[int, Fraction] = {}
        for cells in rows[1:]:
            if len(cells) != 2:
                raise DomainError(f"bad set-function row {cells!r}")
            names = cells[0].translate(str.maketrans("{},", "   ")).split()
            values[expr.universe.mask(names)] = parse_fraction(
                cells[1], f"bad value in set-function row {cells!r}:"
            )
        if values.get(0, Fraction(0)) != 0:
            raise DomainError("the empty set must have value 0")
        print(evaluate(expr, {m: values.get(m, Fraction(0)) for m in expr.terms}))
    else:
        raise DomainError(
            "data file must be a distribution CSV (last column 'prob') or "
            "a set-function table ('set,value')"
        )
    return 0


def cmd_degscan(args: argparse.Namespace) -> int:
    from .functions import degree_scan, relation_from_csv

    relation = relation_from_csv(Path(args.csv).stem, _read(args.csv))
    v_text, _, u_text = args.conditional.partition("|")
    print(degree_scan(relation, _split_names(v_text), _split_names(u_text)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroplex",
        description="Validity checking, degree bounds, and hardness "
        "reductions for information inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide validity of an inequality file")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="semantics",
        default="auto",
        choices=[
            "modular", "normal", "step", "entropic", "polymatroid", "monotone",
            "auto",
        ],
    )
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("bound", help="log output-size bound of a constraint file")
    p.add_argument("file")
    p.add_argument(
        "--method",
        default="auto",
        choices=["modular", "simple", "polymatroid", "step", "auto"],
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("reduce", help="turn a hardness instance into an inequality")
    p.add_argument("kind", choices=sorted(_REDUCERS))
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("eval", help="evaluate an inequality on data")
    p.add_argument("ineq")
    p.add_argument("data")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("degscan", help="max conditional degree of a relation CSV")
    p.add_argument("csv")
    p.add_argument("conditional", help="e.g. 'B|A' or 'A,B'")
    p.set_defaults(handler=cmd_degscan)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, DslError, CapExceeded, UnsupportedSemantics) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ConsistencyError as ex:
        print(f"error: internal consistency check failed: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
