"""Command-line interface.

    stratdual verify <input> [--perversity SPEC] [--strategy lex|reverse-lex]
                     [--checks LIST] [--format json|csv|text] [--seed N]
    stratdual examples list
    stratdual examples show <name>

<input> is a path to an input document, or the name of a bundled example.
Reports are deterministic: identical (input, config, seed) produce byte
identical output.  Exit status: 0 all requested checks pass, 1 a verdict
failed, 2 an error occurred (its machine-readable code is in the report).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import examples
from .cone import compare
from .cotruncation import check_product_vanishing
from .duality import (
    ladder_check,
    lefschetz_pairing,
    main_pairing,
    well_definedness_identity,
)
from .errors import BadPerversityError, ParseError, ResourceExhaustedError, StratdualError
from .model import (
    NAMED_PERVERSITIES,
    complementary,
    cutoff_degree,
    named_perversity,
    validate_perversity,
)
from .rational import COMPLEMENT_LEAD
from .workspace import Workspace, document_key

SCHEMA_VERSION = 2
ALL_CHECKS = ("model", "duality", "ladder", "lefschetz",
              "truncated-duality", "oracle", "properties")


def resolve_input(ref: str):
    path = Path(ref)
    try:
        found = path.exists()
    except OSError as exc:
        # pathlib re-raises what stat says beyond "no such file", such as a
        # name too long: that input can be neither read nor bundled.
        raise ParseError(f"cannot read input document: {exc}") from exc
    if found:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read input document: {exc}") from exc
        return document, path.name
    if ref in examples.DECOMPOSITION_DOCUMENTS:
        return examples.get_document(ref), ref
    raise ParseError(f"input {ref!r} is neither a file nor a bundled example")


def _is_ascii_integer(field: str) -> bool:
    """Whether ``field`` is at most one sign followed by ASCII digits only.
    An ASCII str is a digit exactly where it is one of 0-9."""
    digits = field[1:] if field[:1] in ("+", "-") else field
    return digits.isascii() and digits.isdigit()


def resolve_perversity(text: str, n: int):
    if text in NAMED_PERVERSITIES:
        return named_perversity(text, n)
    # Each field is an optional sign and ASCII digits, as validate_perversity
    # reads its keys: int() would also take "0_0" and non-ASCII digits.
    fields = [v.strip() for v in text.split(",")]
    if not all(_is_ascii_integer(v) for v in fields):
        raise BadPerversityError(f"cannot parse perversity {text!r}")
    values = [int(v) for v in fields]
    if len(values) != n - 1:
        raise BadPerversityError(
            f"explicit perversity needs {n - 1} values for codimensions 2..{n}")
    return validate_perversity(values)


def _check_model(mp, mq):
    """Betti numbers of both models, and their independence of the complement.

    The two strategies' models at one cutoff k differ only in A^k: below k
    both are C*(M, L), and from k + 1 on both are C*(M).  So d_A^r agrees in
    every degree but k - 1 and k, and d_A^{k-1} is d_rel^{k-1} with zero
    rows where the strategy places its complement, of the relative rank on
    both sides.  So b_r agrees for r outside k and k + 1, and
    b_k = dim A^k - rank d^k - rank d^{k-1} and
    b_{k+1} = dim C^{k+1}(M) - rank d^{k+1} - rank d^k agree exactly when
    dim A^k and rank d^k do.  Neither depends on the complement:
    dim A^k = dim C^k(M, L) + dim C^k(L) - rank d_L^{k-1}, as the complement
    fills C^k(L) beside im d_L^{k-1}, and rank d_A^k = rank d_M^k, as
    im d_A^k = im d_M^k (see ``model.build_model``).  So the model's own
    cutoff pass, whose ``cols`` and ``rank`` are dim A^k and rank d_A^k, is
    checked against those two quantities, read off the pair's passes, and
    no complement, pass, cotruncation or model of the other strategy is
    built.
    """
    D = mp.decomposition
    betti_p, betti_q = list(mp.betti()), list(mq.betti())
    choice_independent = True
    for m in (mp, mq):
        pair, k, cutoff = m.pair, m.k, m.complex.echelon(m.k)
        choice_independent = choice_independent and (cutoff.cols, cutoff.rank) == (
            pair.rel.dim(k) + pair.sub.dim(k) - pair.sub.echelon(k - 1).rank,
            pair.full.echelon(k).rank)
    symmetric = all(betti_p[r] == betti_q[D.n - r] for r in range(D.n + 1))
    ok = (choice_independent and symmetric
          and betti_p[0] == 0 and betti_q[0] == 0)
    return {
        "pass": ok,
        "betti_p": betti_p,
        "betti_q": betti_q,
        "cutoff_p": mp.k,
        "cutoff_q": mq.k,
        "choice_independent": choice_independent,
        "complementarity_symmetric": symmetric,
        "h0_vanishes": betti_p[0] == 0 and betti_q[0] == 0,
    }


def _check_oracle(ws, mp, mq, strategy):
    results = {}
    ok = True
    for tag, model in (("p", mp), ("q", mq)):
        cone = ws.cone(model.k, strategy)
        match, model_b, cone_b = compare(model, cone)
        ok = ok and match
        results[tag] = {
            "match": match,
            "model_betti": list(model_b),
            "cone_betti": list(cone_b),
        }
    return {"pass": ok, "sides": results}


def _check_duality(mp, mq, forms):
    report = main_pairing(mp, mq, forms)
    stable = well_definedness_identity(mp, mq, forms)
    return {
        "pass": report.passed and stable,
        "well_defined": stable,
        "pairing": report.to_jsonable(),
    }


def _check_ladder(mp, mq, forms):
    records = [ladder_check(mp, mq, r, forms)
               for r in range(mp.decomposition.n + 1)]
    return {
        "pass": all(rec.passed for rec in records),
        "degrees": [rec.to_jsonable() for rec in records],
    }


def _check_lefschetz(forms):
    report = lefschetz_pairing(forms)
    return {"pass": report.passed, "pairing": report.to_jsonable()}


def _check_truncated_duality(ws, strategy):
    c = ws.decomposition().n - 1
    windows = {}
    ok = True
    for k in range(1, c + 1):
        report = ws.truncated_duality(k, strategy)
        ok = ok and report.passed
        windows[f"k={k},l={c + 1 - k}"] = report.to_jsonable()
    return {"pass": ok, "windows": windows}


def _check_properties(ws, mp, mq, strategy):
    D, pair = ws.decomposition(), ws.pair()
    complexes = ((D.X, ws.cochains(), ws.chains("X")), (D.M, pair.full, ws.chains("M")),
                 (D.L, pair.sub, ws.chains("L")))
    # Stokes, integrate(d x, xi) = -(-1)^r integrate(x, ∂xi) for all x, xi:
    # integrate is bilinear evaluation, so this is one matrix identity per
    # degree, on the ∂ that the chain complexes keep.
    stokes_identity = all(
        C.diff(r) == chains.bnd(r + 1).transpose().scaled(-((-1) ** r))
        for _, C, chains in complexes for r in range(C.top + 1))
    # True by construction: see check_product_vanishing.
    c = D.L.dimension
    vanishing_ok = True
    cts = {k: ws.cotruncation(k, strategy) for k in range(1, c + 2)}
    for k in cts:
        for l in cts:
            for r in range(1, c + 1):
                for s in range(1, c + 1):
                    if k + l > r + s:
                        if not check_product_vanishing(pair.sub_cup, cts[k], cts[l], r, s):
                            vanishing_ok = False
    # Restricted products of A_p^a with closed A_q^b, a + b = n - 1, vanish on
    # the link: checked on spanning sets, which covers every element by bilinearity.
    boundary_products_vanish = True
    for a in range(D.n):
        b = D.n - 1 - a
        ys = pair.restrict[a] @ mp.iota[a]
        zs = pair.restrict[b] @ mq.iota[b] @ mq.complex.representative_matrix(b)
        if not pair.sub_cup.products_vanish(a, ys, b, zs):
            boundary_products_vanish = False
    # C.betti() reads the ranks of d alone: b_r = dim C^r - rank d_r - rank d_{r-1}.
    euler_ok = all(K.euler_characteristic() == sum((-1) ** r * b for r, b in enumerate(C.betti()))
                   for K, C, _ in complexes)
    ok = stokes_identity and vanishing_ok and boundary_products_vanish and euler_ok
    return {
        "pass": ok,
        "stokes_identity": stokes_identity,
        "product_vanishing": vanishing_ok,
        "boundary_products_vanish": boundary_products_vanish,
        "euler_characteristic": euler_ok,
    }


# The workspace of the last document run_verification saw: a call on a
# document with the same content reuses it, any other call replaces it
# before building anything, so one document's objects are held at a time.
_workspace = None


def _workspace_for(document) -> Workspace:
    global _workspace
    key = document_key(document)
    if _workspace is None or _workspace.key != key:
        _workspace = Workspace(document, key)
    return _workspace


def _echo(value):
    """``value`` as the report's config echoes it: itself where the JSON
    writer renders it, else its repr, so that a report that rejects an
    argument of the wrong type still renders."""
    try:
        render_json_direct(value)
    except TypeError:
        return repr(value)
    return value


def run_verification(target: str, perversity: str = "zero",
                     strategy: str = "lex", checks=None, seed: int = 0):
    """Run the requested checks; returns (report dict, exit status).

    Everything derived from the input document is kept until a call on a
    document with other content, so calls on one document build it once.
    An argument of the wrong type is rejected up front with a report, as an
    unknown check or strategy is: a ``target`` that is not a str and
    ``checks`` that are not a list or tuple of str with ``PARSE``, a
    ``perversity`` that is not a str with ``BAD_PERVERSITY``.  The report's
    config echoes every argument, as its repr where the JSON writer cannot
    render it.

    A run that runs out of memory drops the workspace and returns a
    RESOURCE_EXHAUSTED report, with exit status 2, that names the check
    that was running (None before the first check).
    """
    global _workspace
    listed = checks is None or (isinstance(checks, (list, tuple))
                                and all(type(c) is str for c in checks))
    if listed:
        checks = list(checks) if checks else list(ALL_CHECKS)
    config = {
        "input": _echo(target),
        "perversity": _echo(perversity),
        "strategy": _echo(strategy),
        "checks": _echo(checks),
        "seed": _echo(seed),
    }
    report = {"schema_version": SCHEMA_VERSION, "config": config}
    running = None
    try:
        if type(target) is not str:
            raise ParseError(f"input must be a str, got {target!r}")
        if not listed:
            raise ParseError(f"checks must be a list or tuple of str, got {checks!r}")
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            raise ParseError(f"unknown checks: {unknown}")
        if type(strategy) is not str or strategy not in COMPLEMENT_LEAD:
            raise ParseError(f"unknown strategy {strategy!r}")
        if type(perversity) is not str:
            raise BadPerversityError(f"perversity must be a str, got {perversity!r}")
        document, name = resolve_input(target)
        report["input"] = name
        ws = _workspace_for(document)
        D = ws.decomposition()
        p = resolve_perversity(perversity, D.n)
        q = complementary(p)
        k_p, k_q = cutoff_degree(p, D.n), cutoff_degree(q, D.n)
        report["perversity_values"] = {
            "p": [p(s) for s in range(2, D.n + 1)],
            "q": [q(s) for s in range(2, D.n + 1)],
            "cutoff_p": k_p,
            "cutoff_q": k_q,
        }
        ws.mu()  # before the pair, so that a bad mu is reported first
        mp = ws.model(k_p, strategy)
        mq = ws.model(k_q, strategy)
        results = {}
        for check in checks:
            running = check
            if check == "model":
                results[check] = _check_model(mp, mq)
            elif check == "oracle":
                results[check] = _check_oracle(ws, mp, mq, strategy)
            elif check == "duality":
                results[check] = _check_duality(mp, mq, ws.forms())
            elif check == "ladder":
                results[check] = _check_ladder(mp, mq, ws.forms())
            elif check == "lefschetz":
                results[check] = _check_lefschetz(ws.forms())
            elif check == "truncated-duality":
                results[check] = _check_truncated_duality(ws, strategy)
            elif check == "properties":
                results[check] = _check_properties(ws, mp, mq, strategy)
        report["checks"] = results
        report["pass"] = all(section["pass"] for section in results.values())
        return report, (0 if report["pass"] else 1)
    except StratdualError as exc:
        report["error"] = {"code": exc.code, "message": str(exc)}
        report["pass"] = False
        return report, 2
    except MemoryError:
        pass
    # Out of memory.  The handler has ended, and with it the traceback that
    # held the frames of the failed call; the workspace goes too, so that the
    # next call starts cold, and this frame's own references to it end with
    # the return, before the report is rendered.
    _workspace = None
    where = f"in the {running} check" if running else "before the first check"
    error = ResourceExhaustedError(f"out of memory {where}")
    report["error"] = {"code": error.code, "message": str(error), "check": running}
    report["pass"] = False
    return report, 2


_escape = json.encoder.encode_basestring_ascii


def render_json_direct(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, in one pass.

    Dispatches on exact type: dicts with str keys (in sorted order), lists,
    tuples, str, bool, int and None.  Anything else, a float, a set or a
    non-str key among them, raises ``TypeError``: a report holds no floats.
    ``json.dumps`` with ``indent`` runs its pure-Python encoder below
    Python 3.13, which this pass outruns.
    """
    parts = []
    _write_json(value, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, append) -> None:
    # A module-level function, not a closure: a closure that calls itself is
    # a reference cycle, which would hold the pieces until the next collection.
    kind = type(value)
    if kind is str:
        append(_escape(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is bool:
        append("true" if value else "false")
    elif value is None:
        append("null")
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(separator + _escape(key) + ": ")
            _write_json(value[key], inner, append)
            separator = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            append(separator)
            _write_json(item, inner, append)
            separator = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"cannot render {kind.__name__} as report JSON")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json_direct(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ParseError(f"unknown format {fmt!r}")


def _render_csv(report: dict) -> str:
    lines = ["section,item,value"]
    lines.append(f"run,schema_version,{report['schema_version']}")
    lines.append(f"run,pass,{str(report.get('pass', False)).lower()}")
    if "error" in report:
        lines.append(f"error,code,{report['error']['code']}")
        return "\n".join(lines) + "\n"
    for check in sorted(report.get("checks", {})):
        section = report["checks"][check]
        lines.append(f"{check},pass,{str(section['pass']).lower()}")
        for key in sorted(section):
            value = section[key]
            if isinstance(value, (bool, int, str)):
                if key != "pass":
                    lines.append(f"{check},{key},{str(value).lower()}")
            elif isinstance(value, list) and all(isinstance(v, int) for v in value):
                lines.append(f"{check},{key},{' '.join(map(str, value))}")
    return "\n".join(lines) + "\n"


def _render_text(report: dict) -> str:
    lines = [f"stratdual report (schema {report['schema_version']})"]
    if "error" in report:
        lines.append(f"ERROR {report['error']['code']}: {report['error']['message']}")
        return "\n".join(lines) + "\n"
    lines.append(f"input: {report.get('input', '?')}")
    pv = report.get("perversity_values", {})
    if pv:
        lines.append(f"perversity p: {pv['p']} (cutoff {pv['cutoff_p']}), "
                     f"q: {pv['q']} (cutoff {pv['cutoff_q']})")
    for check in report.get("config", {}).get("checks", []):
        section = report.get("checks", {}).get(check)
        if section is None:
            continue
        verdict = "pass" if section["pass"] else "FAIL"
        lines.append(f"  {check:20s} {verdict}")
    lines.append("overall: " + ("pass" if report.get("pass") else "FAIL"))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stratdual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verifications on an input complex")
    verify.add_argument("input", help="input document path or bundled example name")
    verify.add_argument("--perversity", default="zero",
                        help="zero|top|lower-middle|upper-middle or values for s=2..n, e.g. 0,1")
    verify.add_argument("--strategy", default="lex", choices=list(COMPLEMENT_LEAD))
    verify.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of: " + ", ".join(ALL_CHECKS))
    verify.add_argument("--format", default="json", choices=["json", "csv", "text"])
    verify.add_argument("--seed", type=int, default=0,
                        help="inert: no check draws random numbers; echoed in the report config")

    ex = sub.add_parser("examples", help="inspect bundled examples")
    ex_sub = ex.add_subparsers(dest="examples_command", required=True)
    ex_sub.add_parser("list", help="list bundled decompositions")
    show = ex_sub.add_parser("show", help="print a bundled input document")
    show.add_argument("name")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "examples":
        if args.examples_command == "list":
            sys.stdout.write(render_report(examples.catalog(), "json"))
            return 0
        if args.name not in examples.DECOMPOSITION_DOCUMENTS:
            error = {"code": "PARSE", "message": f"unknown example {args.name!r}"}
            sys.stdout.write(render_report({"error": error}, "json"))
            return 2
        sys.stdout.write(render_report(examples.get_document(args.name), "json"))
        return 0

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    report, status = run_verification(
        args.input, perversity=args.perversity, strategy=args.strategy,
        checks=checks, seed=args.seed)
    sys.stdout.write(render_report(report, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
