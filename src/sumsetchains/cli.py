"""Command-line entry point.

One executable, `sumsetchains`, dispatching to the library modules. Exit
codes follow a fixed contract so scripts and CI can tell results apart:
0 means every check passed, 2 means a well-formed run found a negative
result or counterexample (reports are still written), 1 means a usage or
capacity error. Data outputs are byte-reproducible for identical
parameters; timing and environment go to a sidecar metadata file, never
into the data itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from . import kernel
from .chains import enumerate_chains, is_chain, verify_main_theorem
from .dimension import additive_dim, f_isomorphism, relation_rank
from .doubling import profile
from .errors import (
    CapacityError,
    DecompositionNotUnique,
    FactorizationFailed,
    NotDecomposable,
)
from .growth import factorize
from .intset import IntSet
from .search import (
    DEFAULT_BUDGET,
    check_uniqueness_lemmas,
    extension_lemma_sweep,
    kernel_digest,
    verify_conjecture,
    vol1_oracle,
)
from .stability import stable_decompose


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj) -> None:
    print(_dumps(obj))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for counterexamples
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads",
        type=positive_int,
        default=1,
        help="workers for the slice walks: threads on the compiled kernel, "
        "processes on the pure-Python one",
    )
    p.add_argument("--no-cache", action="store_true", help="bypass the disk cache")
    p.add_argument(
        "--force",
        action="store_true",
        help=f"sweep even past the budget of {DEFAULT_BUDGET:,} candidates",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetchains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="doubling profile and conjectured max volume")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(handler=cmd_mu)

    p = sub.add_parser("dim", help="additive dimension of a set")
    p.add_argument("--set", required=True, dest="set_text")
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("decompose", help="stable decomposition of a normal set")
    p.add_argument("--set", required=True, dest="set_text")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("chain-check", help="test a set for the chain property")
    p.add_argument("--set", required=True, dest="set_text")
    p.set_defaults(handler=cmd_chain_check)

    p = sub.add_parser("chain-enum", help="enumerate canonical chains at one size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=cmd_chain_enum)

    p = sub.add_parser("factorize", help="growth-operator factorization")
    p.add_argument("--set", required=True, dest="set_text")
    p.set_defaults(handler=cmd_factorize)

    p = sub.add_parser("fiso", help="Freiman isomorphism test")
    p.add_argument("--a", required=True, dest="a_text")
    p.add_argument("--b", required=True, dest="b_text")
    p.set_defaults(handler=cmd_fiso)

    p = sub.add_parser("search", help="exhaustive volume oracle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_cache_flags(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("verify", help="conjecture, extension, and chain suite")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_cache_flags(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def cmd_mu(args) -> int:
    prof = profile(args.k, args.t)
    _emit(prof.as_dict())
    return 0


def cmd_dim(args) -> int:
    a = IntSet.from_text(args.set_text)
    basis = relation_rank(a)
    _emit({"set": list(a), "lambda": basis.rank, "dim": additive_dim(a)})
    return 0


def cmd_decompose(args) -> int:
    a = IntSet.from_text(args.set_text)
    try:
        dec = stable_decompose(a)
    except NotDecomposable:
        _emit({"error": "not_decomposable"})
        return 2
    except DecompositionNotUnique as exc:
        _emit(
            {
                "error": "not_unique",
                "splits": [
                    {"a1": list(s.a1), "p_len": s.p_len, "a2": list(s.a2)}
                    for s in exc.splits
                ],
            }
        )
        return 2
    _emit({"a1": list(dec.a1), "p_len": dec.p_len, "a2": list(dec.a2)})
    return 0


def cmd_chain_check(args) -> int:
    a = IntSet.from_text(args.set_text)
    cert = is_chain(a)
    if cert is None:
        _emit({"chain": False, "set": list(a)})
        return 2
    fact = cert.factorization
    _emit(
        {
            "chain": True,
            "set": list(a),
            "layers": [list(s) for s in cert.sets],
            "volume": cert.volume,
            "factorization": fact.as_dict() if fact is not None else None,
        }
    )
    return 0


def cmd_chain_enum(args) -> int:
    records = enumerate_chains(args.k)
    lines = []
    stuck = 0
    for rec in records:
        prof = rec.profile
        try:
            fact = factorize(rec.set).as_dict()
        except FactorizationFailed as exc:
            fact = {"error": str(exc)}
            stuck += 1
        lines.append(
            _dumps(
                {
                    "set": list(rec.set),
                    "t": prof.t,
                    "c": prof.c,
                    "b": prof.b,
                    "mu": prof.mu,
                    "vol": rec.volume,
                    "factorization": fact,
                }
            )
        )
    payload = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(payload)
    else:
        sys.stdout.write(payload)
    return 2 if stuck else 0


def cmd_factorize(args) -> int:
    a = IntSet.from_text(args.set_text)
    try:
        f = factorize(a)
    except FactorizationFailed as exc:
        _emit({"error": "not_factorizable", "message": str(exc)})
        return 2
    _emit(f.as_dict())
    return 0


def cmd_fiso(args) -> int:
    a = IntSet.from_text(args.a_text)
    b = IntSet.from_text(args.b_text)
    mapping = f_isomorphism(a, b)
    if mapping is None:
        _emit({"isomorphic": False})
        return 2
    _emit({"isomorphic": True, "mapping": {str(k): v for k, v in mapping.items()}})
    return 0


def _search_reports(args) -> list:
    kwargs = dict(threads=args.threads, use_cache=not args.no_cache, force=args.force)
    if args.t is not None:
        return [vol1_oracle(args.k, args.t, args.bound, **kwargs)]
    return verify_conjecture(args.k, args.bound, **kwargs)


def _search_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["k", "t", "c", "b", "mu", "observed_max_vol", "attained", "witness", "violations"]
    )
    for r in reports:
        prof = profile(r.k, r.t)
        witness = r.witness_sets[0].to_text() if r.witness_sets else ""
        writer.writerow(
            [
                r.k,
                r.t,
                prof.c,
                prof.b,
                r.mu,
                r.observed_max_vol,
                int(r.attained),
                witness,
                len(r.violation_list),
            ]
        )
    return buf.getvalue()


def _search_witness_lines(reports) -> str:
    lines = []
    for r in reports:
        for w in r.witness_sets:
            lines.append(_dumps({"k": r.k, "t": r.t, "kind": "witness", "set": list(w)}))
        for v in r.violation_list:
            lines.append(
                _dumps({"k": r.k, "t": r.t, "kind": "violation", "set": list(v)})
            )
    return "\n".join(lines) + "\n"


def cmd_search(args) -> int:
    start = time.perf_counter()
    reports = _search_reports(args)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        payload = _dumps([r.as_dict() for r in reports]) + "\n"
    else:
        payload = _search_csv(reports)
    if args.out:
        args.out.write_text(payload)
        base = args.out.with_suffix("")
        Path(f"{base}.witnesses.jsonl").write_text(_search_witness_lines(reports))
        meta = {
            "backend": kernel.BACKEND,
            "kernel_digest": kernel_digest(),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_seconds": round(elapsed, 3),
            "threads": args.threads,
            "force": args.force,
        }
        Path(f"{base}.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    else:
        sys.stdout.write(payload)
    return 2 if any(r.violation_list for r in reports) else 0


def _verify_document(args) -> dict:
    """The verdict of `verify` as `--format json` prints it, less the
    top-level ok: the oracle reports, the extension sweep, the chain theorem
    and the uniqueness checks, run in that order."""
    opts = dict(threads=args.threads, use_cache=not args.no_cache)
    reports = verify_conjecture(args.k, force=args.force, **opts)
    # the table verify_conjecture just filled covers the sweep's bound
    sweep = extension_lemma_sweep(args.k, threads=args.threads)
    chains = enumerate_chains(args.k)
    chain_failures = []
    for rec in chains:
        report = verify_main_theorem(is_chain(rec.set))
        if not report.ok:
            chain_failures.append({"set": list(rec.set), "problems": list(report.failures)})
    applicable = 0
    uniq_failures = []
    for rec in chains:
        checks = check_uniqueness_lemmas(rec.set, **opts).checks
        applicable += sum(1 for chk in checks if chk.applicable)
        uniq_failures += [
            {"set": list(rec.set), "check": chk.name, "details": chk.details}
            for chk in checks
            if chk.passed is False
        ]
    return {
        "k": args.k,
        "conjecture": [r.as_dict() | {"ok": r.holds and r.attained} for r in reports],
        "extension_sweep": {
            "sets": sweep.sets_checked,
            "pairs": sweep.pairs_checked,
            "violations": [
                {"set": list(a), "x": c.x, "problems": list(c.violations)}
                for a, c in sweep.violations
            ],
        },
        "chains": {"count": len(chains), "failures": chain_failures},
        "uniqueness": {"applicable": applicable, "failures": uniq_failures},
    }


def _verdicts(doc: dict) -> list[tuple[str, bool]]:
    """The lines of the text report read off a verify document, each without
    its PASS/FAIL and with whether it passed: one per oracle report, then one
    per check family, which passes when its failure list is empty."""
    k = doc["k"]
    sweep, chains, uniq = doc["extension_sweep"], doc["chains"], doc["uniqueness"]

    def family(name, counts, failures, noun="failures"):
        return f"{name} k={k}: {counts}, {len(failures)} {noun}", not failures

    return [
        (
            f"conjecture k={r['k']} t={r['t']}: observed {r['observed_max_vol']} "
            f"expected {r['mu'] + 1} attained {'yes' if r['attained'] else 'no'}",
            r["ok"],
        )
        for r in doc["conjecture"]
    ] + [
        family(
            "extension sweep",
            f"{sweep['sets']} sets, {sweep['pairs']} extensions",
            sweep["violations"],
            "violations",
        ),
        family("chain factorization", f"{chains['count']} chains", chains["failures"]),
        family("uniqueness checks", f"{uniq['applicable']} applicable", uniq["failures"]),
    ]


def cmd_verify(args) -> int:
    doc = _verify_document(args)
    verdicts = _verdicts(doc)
    ok = all(passed for _, passed in verdicts)
    if args.format == "json":
        _emit(doc | {"ok": ok})
    else:
        print("\n".join(f"{line} {'PASS' if passed else 'FAIL'}" for line, passed in verdicts))
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"sumsetchains: capacity: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"sumsetchains: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
