"""Command-line interface.

Subcommands:
  roots      positive roots, root poset covers and numerology of a type
  cone       regions, ceilings, flats and Poincare polynomial of a cone
             (or, with --e, of a deletion inside the dominant cone)
  verify     run the verification suites, exit 1 on any failure
  orderring  order-polytope vertices, ring presentation, Hilbert series

Output is deterministic for identical invocations, except the
``elapsed_s`` wall times that ``verify`` reports.  Exit codes: 0 on
success, 1 when a verification check fails, 2 on usage or parse errors
and when the ``--out`` file cannot be written.

:func:`main` may be called many times in one process; it parses every
call with one parser, built on the first call and kept for the process
(see :func:`build_parser`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from functools import lru_cache
from typing import Optional

from . import orderring, shi
from .posets import FinitePoset
from .rootsys import (
    CartanType,
    build_root_system,
    element_from_word,
    numerology,
    root_poset,
)
from .verify import run_suite


class UsageError(Exception):
    pass


def parse_word(text: str, rank: int) -> tuple:
    """Generator word: letters ``"st"[:rank]`` in rank <= 2, ASCII
    digits 1..rank (at most 9) otherwise."""
    out = []
    for ch in text.strip():
        if rank <= 2 and ch in "st"[:rank]:
            out.append("st".index(ch))
        elif ch in "123456789"[:rank]:
            out.append(int(ch) - 1)
        else:
            raise UsageError(f"invalid generator symbol {ch!r} for rank {rank}")
    return tuple(out)


def _parse_indices(text: str, bound: int) -> list:
    if not text.strip():
        return []
    parts = [part.strip() for part in text.split(",")]
    if not all(re.fullmatch("[0-9]+", part) for part in parts):
        raise UsageError(f"cannot parse index list {text!r}")
    idxs = [int(part) for part in parts]
    for i in idxs:
        if not 0 <= i < bound:
            raise UsageError(f"root index {i} out of range 0..{bound - 1}")
    return sorted(set(idxs))


# -- serialization ------------------------------------------------------------


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            rows.append([prefix] + [str(v) for v in value])
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append([prefix, str(value)])


_encode_str = json.encoder.encode_basestring_ascii

#: The exact types the C encoder writes as ``json.dumps`` does.
_SCALARS = {int, str, float, bool, type(None)}


def _encode(value, sep: str) -> str:
    """``value`` written by the stdlib's C encoder, which runs when
    there is no indent, with items separated by ``sep``."""
    return json.JSONEncoder(separators=(sep, ": "), check_circular=False).encode(value)


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte,
    with every line after the first indented by ``pad``.

    With an indent the stdlib runs its pure-Python encoder, so this
    writer walks dicts with ``str`` keys itself.  A list goes one of
    three ways: a list of scalars (exact ``int``, ``str``, ``float``,
    ``bool``, ``None``) is one :func:`_encode` call with this level's
    separator; a list of lists or tuples goes to :func:`_table`; any
    other list, and a table :func:`_table` refuses, is walked item by
    item.  Other values (``bool``, ``None``, floats, tuples outside a
    table, dicts with other keys) go to ``json.dumps``, re-indented.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return str(value)
    if (kind is dict or kind is list) and not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and all(type(k) is str for k in value):
        body = sep.join(
            _encode_str(k) + ": " + _dumps(value[k], inner) for k in sorted(value)
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if kind is list:
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            body = _encode(value, sep)[1:-1]
        elif kinds <= {list, tuple} and (text := _table(value, pad)) is not None:
            return text
        else:
            body = sep.join([_dumps(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _table(rows: list, pad: str) -> Optional[str]:
    """:func:`_dumps` of a non-empty list of lists and tuples whose cells
    are all scalars, written by one :func:`_encode` call and
    re-indented, or None when some cell may not be a scalar.

    The encoded text shows the table's shape: the table and each row
    write one ``[``, every nested list or tuple (subclasses too) writes
    another and every dict writes a ``{``.  So with exactly
    ``len(rows) + 1`` brackets and no brace, every cell is a scalar,
    which the encoder writes as ``json.dumps`` does; a string cell that
    holds ``[`` or ``{`` only sends the table back to the row walk.

    The encoder separates items by ``sep2``, the separator of items
    inside a row, so only the seams between rows and the two ends need
    rewriting.  ``sep2`` holds a raw newline, which no encoded scalar
    does, so ``"]" + sep2 + "["`` is always a seam.  An empty row comes
    out of the rewrite as ``[``, a blank line indented by ``inner2`` and
    ``]``, which no other row can, and is put back.
    """
    inner = pad + "  "
    inner2 = inner + "  "
    sep2 = ",\n" + inner2
    text = _encode(rows, sep2)
    if text.count("[") != len(rows) + 1 or "{" in text:
        return None
    body = text[2:-2].replace("]" + sep2 + "[", f"\n{inner}],\n{inner}[\n{inner2}")
    text = f"[\n{inner}[\n{inner2}{body}\n{inner}]\n{pad}]"
    if not all(rows):
        text = text.replace(f"[\n{inner2}\n{inner}]", "[]")
    return text


def render(command: str, cartan_type: str, payload: dict, fmt: str) -> str:
    """The whole output text of a subcommand in ``fmt``.

    The json form is ``json.dumps(record, sort_keys=True, indent=2) +
    "\\n"`` byte for byte, where the record holds ``command``,
    ``cartan_type`` and ``payload``.
    """
    if fmt == "json":
        record = {"command": command, "cartan_type": cartan_type, "payload": payload}
        return _dumps(record) + "\n"
    if fmt == "csv":
        rows: list = [["command", command], ["cartan_type", cartan_type]]
        _flatten("", payload, rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    lines = [f"{command} {cartan_type}".strip()]
    rows = []
    _flatten("", payload, rows)
    for row in rows:
        lines.append("  " + row[0] + ": " + " ".join(row[1:]))
    return "\n".join(lines) + "\n"


def emit(command: str, cartan_type: str, payload: dict, args) -> None:
    """Render the output in ``args.format`` and write it to ``args.out``,
    or to stdout when no file is given."""
    text = render(command, cartan_type, payload, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_roots(args) -> int:
    ctype = CartanType.parse(args.type)
    rs = build_root_system(ctype)
    num = numerology(rs)
    poset = root_poset(rs)
    payload = {
        "rank": rs.rank,
        "positive_roots": list(rs.positive_roots),
        "root_poset_covers": poset.cover_pairs(),
        "coxeter_number": rs.coxeter_number,
        "degrees": list(rs.degrees),
        "catalan": num.catalan,
        "parking": num.parking,
        "narayana": list(num.narayana),
    }
    emit("roots", str(ctype), payload, args)
    return 0


def cmd_cone(args) -> int:
    ctype = CartanType.parse(args.type)
    rs = build_root_system(ctype)
    if args.e is not None:
        if args.word is not None:
            raise UsageError("--word and --e cannot be combined")
        E = _parse_indices(args.e, len(rs.positive_roots))
        payload = shi.deletion_report(rs, E)
    else:
        w = element_from_word(rs, parse_word(args.word or "", rs.rank))
        payload = shi.cone_report(rs, w)
    emit("cone", str(ctype), payload, args)
    return 0


def cmd_verify(args) -> int:
    ctype = CartanType.parse(args.type)
    rs = build_root_system(ctype)
    results = run_suite(rs, theorem=args.theorem, m=args.m)
    payload = {
        "theorem": args.theorem,
        "m": args.m,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "elapsed_s": round(r.elapsed, 3),
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    emit("verify", str(ctype), payload, args)
    if args.format != "text":
        for r in results:
            print(r.line(), file=sys.stderr)
    return 0 if payload["all_passed"] else 1


def _load_poset(args) -> tuple:
    if args.type and args.poset_file:
        raise UsageError("--type and --poset-file cannot be combined")
    if args.poset_file:
        try:
            with open(args.poset_file) as fh:
                data = json.load(fh)
            poset = FinitePoset.from_json_dict(data)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed poset file: {exc}") from exc
        return poset, "-"
    if args.type:
        ctype = CartanType.parse(args.type)
        rs = build_root_system(ctype)
        return root_poset(rs), str(ctype)
    raise UsageError("orderring needs --type or --poset-file")


def cmd_orderring(args) -> int:
    poset, label = _load_poset(args)
    monomials = orderring.standard_monomials(poset)
    pos = {e: i for i, e in enumerate(poset.elements)}
    payload = {
        **poset.to_json_dict(),
        "vertices": orderring.polytope_vertices(poset),
        "generators": orderring.generator_strings(poset),
        "standard_monomials": [
            sorted(m, key=pos.__getitem__) for m in monomials
        ],
        "hilbert": list(orderring.hilbert_series(poset)),
    }
    emit("orderring", label, payload, args)
    return 0


# -- entry point ----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then the
    same object for the rest of the process, since :func:`main` parses
    each call with it.  Callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="shicone",
        description="Exact Shi-arrangement combinatorics in Weyl cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("roots", help="positive roots and numerology")
    p.add_argument("--type", required=True, help="Cartan type, e.g. B2")
    common(p)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("cone", help="regions and flats of one cone")
    p.add_argument("--type", required=True)
    p.add_argument("--word", default=None, help="generator word, e.g. st or 121")
    p.add_argument(
        "--e",
        default=None,
        help="comma-separated root indices: dominant-cone deletion instead of a cone",
    )
    common(p)
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--type", required=True)
    p.add_argument("--theorem", choices=["1", "2", "3", "all"], default="all")
    p.add_argument("--m", type=int, default=1, help="extended level (rank <= 3)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("orderring", help="order ring of a poset or root poset")
    p.add_argument("--type", default=None)
    p.add_argument("--poset-file", default=None, help="poset as JSON")
    common(p)
    p.set_defaults(fn=cmd_orderring)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
