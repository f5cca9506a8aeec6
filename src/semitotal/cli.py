"""Command-line front end emitting machine-readable JSON reports.

Every invocation prints exactly one JSON object to stdout.  Reports are
deterministic for a fixed argv and seed except for the timing field, so
they can serve as regression fixtures.  Exit codes: 0 success, 1 usage
error, 2 unusable input, 3 verification or certificate failure, 4 out of
scale for the configured budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

# The lean builtin SHA-256 first, as `random` takes its SHA-512: importing
# hashlib loads OpenSSL, which added 3.6 MB of resident memory to a
# CPython 3.11 process on Linux, and the reports need nothing else from it.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import InvalidSetting, ParseError, ScaleLimit, SemitotalError
from .graphs import Graph, from_graph6, parse_edge_list, to_graph6
from .patterns import parse_pattern
from .domination import DominationKind, enumerate_min_sets, solve
from .blocker import (
    ContractionCertificate,
    characterize_ct,
    ct_exact,
    replay_contraction,
    validate_ct_verdict,
)
from .hclasses import classify_h
from .reductions import (
    parse_sat,
    reduce_2p3free,
    reduce_chordal,
    reduce_clawfree,
    reduce_tree,
)
from .verify import SUITES, run_suite

SCHEMA = "semitotal-report/1"

_KINDS = {
    "dom": DominationKind.DOMINATION,
    "total": DominationKind.TOTAL,
    "semitotal": DominationKind.SEMITOTAL,
}

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        # argparse exits after this; stdout still holds one JSON object
        _emit({"schema": SCHEMA, "help": self.format_help()}, time.monotonic())


def _add_graph_source(sub):
    sub.add_argument("--graph6", help="inline graph6 code")
    sub.add_argument("--file", help="path to a graph6 or edge-list file")
    sub.add_argument("--stdin", action="store_true", help="read the graph from stdin")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="semitotal",
        description="Semitotal domination, contraction blockers, and the "
        "pattern dichotomy.  SEMITOTAL_BUDGET caps search nodes and subsets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="compute a domination variant exactly")
    _add_graph_source(p)
    p.add_argument("--kind", choices=sorted(_KINDS), default="semitotal")
    p.add_argument("--all", action="store_true", help="list every minimum set")

    p = subs.add_parser("blocker", help="fewest contractions lowering the value")
    _add_graph_source(p)
    p.add_argument("--kind", choices=sorted(_KINDS), default="semitotal")
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--check-certificate", action="store_true")

    p = subs.add_parser("characterize", help="semitotal blocker with mechanism")
    _add_graph_source(p)
    p.add_argument("--check-certificate", action="store_true")

    p = subs.add_parser("reduce", help="build a hardness construction")
    _add_graph_source(p)
    p.add_argument(
        "--target", required=True, choices=["tree", "chordal", "clawfree", "2p3free"]
    )
    p.add_argument("--ell", type=int, help="layer count for the chordal target")
    p.add_argument("--sat", help="1-in-3 instance file for the SAT targets")

    p = subs.add_parser("classify", help="complexity verdict for a pattern")
    p.add_argument("--pattern", required=True)

    p = subs.add_parser("verify", help="run a named cross-checking suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-n", type=int)
    return parser


def _read_text(path: str | None) -> str:
    """The text of the file at path, or of stdin for None."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, "rb") as fh:
            return fh.read().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not ASCII", exc.start) from None


def _load_graph(args) -> tuple[Graph, dict]:
    sources = [
        s for s in (args.graph6, args.file, "-" if args.stdin else None) if s
    ]
    if len(sources) != 1:
        raise UsageError("supply exactly one of --graph6, --file, --stdin")
    text = (args.graph6 or _read_text(args.file)).strip()
    if not text:
        raise ParseError("empty graph input", 0)
    try:
        digest = sha256(text.encode("ascii")).hexdigest()
    except UnicodeEncodeError as exc:
        raise ParseError("input is not ASCII", exc.start) from None
    first = text.splitlines()[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        g = parse_edge_list(text)
    else:
        g = from_graph6(text)
    return g, {"sha256": digest, "order": g.n, "edges": g.m}


def _edge_list(edges) -> list[list[int]]:
    return [list(e) for e in edges]


def _certificate_json(cert: ContractionCertificate) -> dict:
    return {
        "edges": _edge_list(cert.edges),
        "value_before": cert.value_before,
        "value_after": cert.value_after,
        "vertex_map": {str(k): v for k, v in sorted(cert.vertex_map.items())},
    }


def _cmd_solve(args) -> tuple[dict, dict, int]:
    g, digest = _load_graph(args)
    kind = _KINDS[args.kind]
    result = solve(g, kind)
    results = {
        "kind": kind.value,
        "value": result.value,
        "witness": sorted(result.witness),
        "nodes": result.nodes,
    }
    if args.all:
        results["all"] = [sorted(d) for d in enumerate_min_sets(g, kind)]
    return results, digest, 0


def _cmd_blocker(args) -> tuple[dict, dict, int]:
    if args.max_k < 1:
        raise UsageError(f"--max-k must be at least 1, got {args.max_k}")
    g, digest = _load_graph(args)
    kind = _KINDS[args.kind]
    res = ct_exact(g, kind, args.max_k)
    results: dict = {"kind": kind.value, "ct": None, "certificate": None}
    if res is None:
        return results, digest, 0
    k, cert = res
    results.update(ct=k, certificate=_certificate_json(cert))
    if not args.check_certificate:
        return results, digest, 0
    ok = replay_contraction(g, kind, cert.edges, cert.value_before) == cert.value_after
    results["certificate_check"] = "ok" if ok else "failed"
    return results, digest, 0 if ok else 3


def _cmd_characterize(args) -> tuple[dict, dict, int]:
    g, digest = _load_graph(args)
    verdict = characterize_ct(g)
    results: dict = {
        "gamma_t2": verdict.value,
        "ct": verdict.k,
        "mechanism": verdict.mechanism.value,
    }
    if verdict.sds is not None:
        results["sds"] = sorted(verdict.sds)
    if verdict.triple is not None:
        results["triple"] = list(verdict.triple)
    if verdict.match is not None:
        results["configuration"] = {
            "id": verdict.match.config.value,
            "assignment": {role: v for role, v in sorted(verdict.match.assignment.items())},
            "thick_edges": _edge_list(verdict.match.thick_edges),
        }
    if verdict.certificate is not None:
        results["certificate"] = _certificate_json(verdict.certificate)
    if not args.check_certificate:
        return results, digest, 0
    ok = validate_ct_verdict(g, verdict)
    results["certificate_check"] = "ok" if ok else "failed"
    return results, digest, 0 if ok else 3


def _cmd_reduce(args) -> tuple[dict, dict, int]:
    graph_target = args.target in ("tree", "chordal")
    if args.ell is not None and args.target != "chordal":
        raise UsageError(f"--ell applies to the chordal target only, not {args.target}")
    if not graph_target and (args.graph6 or args.file or args.stdin):
        raise UsageError(f"the {args.target} target reads --sat, not a graph")
    if graph_target and args.sat:
        raise UsageError(f"--sat applies to the SAT targets only, not {args.target}")
    if graph_target:
        g, digest = _load_graph(args)
        if args.target == "tree":
            out = reduce_tree(g)
        else:
            if args.ell is None:
                raise UsageError("--ell is required for the chordal target")
            out = reduce_chordal(g, args.ell)
    else:
        if not args.sat:
            raise UsageError(f"--sat is required for the {args.target} target")
        text = _read_text(args.sat)
        sat = parse_sat(text)
        digest = {
            "sha256": sha256(text.strip().encode("ascii")).hexdigest(),
            "variables": sat.num_vars,
            "clauses": len(sat.clauses),
        }
        out = reduce_clawfree(sat) if args.target == "clawfree" else reduce_2p3free(sat)
    results = {
        "target": args.target,
        "order": out.graph.n,
        "edges": out.graph.m,
        "graph6": to_graph6(out.graph),
        "labels": dict(sorted(out.labels.items())),
        "meta": dict(sorted(out.meta.items())),
    }
    return results, digest, 0


def _cmd_classify(args) -> tuple[dict, dict, int]:
    h = parse_pattern(args.pattern)
    tag = classify_h(h)
    results: dict = {"verdict": tag.verdict.value, "reason": tag.reason}
    params = {k: v for k, v in (("t", tag.t), ("p", tag.p)) if v is not None}
    if params:
        results["params"] = params
    return results, {"pattern": args.pattern, "order": h.n}, 0


def _cmd_verify(args) -> tuple[dict, dict, int]:
    # a sweep over nothing would report success without checking anything
    if args.max_n is not None and args.max_n < 2:
        raise UsageError(f"--max-n must be at least 2, got {args.max_n}")
    checks = run_suite(args.suite, max_n=args.max_n)
    results = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ],
    }
    code = 3 if any(c.status == "fail" for c in checks) else 0
    digest = {"suite": args.suite}
    if args.max_n is not None:
        digest["max_n"] = args.max_n
    return results, digest, code


_COMMANDS = {
    "solve": _cmd_solve,
    "blocker": _cmd_blocker,
    "characterize": _cmd_characterize,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    started = time.monotonic()
    report: dict = {"schema": SCHEMA}
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        report["error"] = {"type": "usage", "message": str(exc)}
        _emit(report, started)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    report["command"] = args.command
    try:
        results, digest, code = _COMMANDS[args.command](args)
        report["input"] = digest
        report["results"] = results
    except (UsageError, InvalidSetting) as exc:
        report["error"] = {"type": "usage", "message": str(exc)}
        code = 1
    except ScaleLimit as exc:
        report["error"] = {"type": "ScaleLimit", "message": str(exc)}
        code = 4
    except SemitotalError as exc:  # every other error of the package is the input's
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    except OSError as exc:
        report["error"] = {"type": "io", "message": str(exc)}
        code = 2
    _emit(report, started)
    return code


def _emit(report: dict, started: float):
    report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
