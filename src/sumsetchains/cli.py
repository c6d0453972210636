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
from .doubling import profile, t_range
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


def _parse_set(text: str) -> IntSet:
    return IntSet.from_text(text)


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
    a = _parse_set(args.set_text)
    basis = relation_rank(a)
    _emit({"set": list(a), "lambda": basis.rank, "dim": additive_dim(a)})
    return 0


def cmd_decompose(args) -> int:
    a = _parse_set(args.set_text)
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
    a = _parse_set(args.set_text)
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
    a = _parse_set(args.set_text)
    try:
        f = factorize(a)
    except FactorizationFailed as exc:
        _emit({"error": "not_factorizable", "message": str(exc)})
        return 2
    _emit(f.as_dict())
    return 0


def cmd_fiso(args) -> int:
    a = _parse_set(args.a_text)
    b = _parse_set(args.b_text)
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
    if args.bound is not None:
        lo, hi = t_range(args.k)
        return [vol1_oracle(args.k, t, args.bound, **kwargs) for t in range(lo, hi + 1)]
    return verify_conjecture(args.k, **kwargs)


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


def cmd_verify(args) -> int:
    failures = 0
    out: dict = {"k": args.k}
    lines: list[str] = []

    reports = verify_conjecture(
        args.k, threads=args.threads, use_cache=not args.no_cache, force=args.force
    )
    out["conjecture"] = []
    for r in reports:
        ok = r.holds and r.attained
        failures += 0 if ok else 1
        lines.append(
            f"conjecture k={r.k} t={r.t}: observed {r.observed_max_vol} "
            f"expected {r.mu + 1} attained {'yes' if r.attained else 'no'} "
            f"{'PASS' if ok else 'FAIL'}"
        )
        out["conjecture"].append(r.as_dict() | {"ok": ok})

    # the table verify_conjecture just filled covers the sweep's bound
    sweep = extension_lemma_sweep(args.k, threads=args.threads)
    ok = sweep.ok
    failures += 0 if ok else 1
    lines.append(
        f"extension sweep k={args.k}: {sweep.sets_checked} sets, "
        f"{sweep.pairs_checked} extensions, {len(sweep.violations)} violations "
        f"{'PASS' if ok else 'FAIL'}"
    )
    out["extension_sweep"] = {
        "sets": sweep.sets_checked,
        "pairs": sweep.pairs_checked,
        "violations": [
            {"set": list(a), "x": c.x, "problems": list(c.violations)}
            for a, c in sweep.violations
        ],
    }

    chains = enumerate_chains(args.k)
    bad_chains = []
    for rec in chains:
        cert = is_chain(rec.set)
        report = verify_main_theorem(cert)
        if not report.ok:
            bad_chains.append((rec.set, report.failures))
    failures += 1 if bad_chains else 0
    lines.append(
        f"chain factorization k={args.k}: {len(chains)} chains, "
        f"{len(bad_chains)} failures {'PASS' if not bad_chains else 'FAIL'}"
    )
    out["chains"] = {
        "count": len(chains),
        "failures": [
            {"set": list(s), "problems": list(p)} for s, p in bad_chains
        ],
    }

    uniq_failures = []
    applicable = 0
    for rec in chains:
        rep = check_uniqueness_lemmas(
            rec.set, threads=args.threads, use_cache=not args.no_cache
        )
        for chk in rep.checks:
            if chk.applicable:
                applicable += 1
            if chk.passed is False:
                uniq_failures.append((rec.set, chk.name, chk.details))
    failures += 1 if uniq_failures else 0
    lines.append(
        f"uniqueness checks k={args.k}: {applicable} applicable, "
        f"{len(uniq_failures)} failures {'PASS' if not uniq_failures else 'FAIL'}"
    )
    out["uniqueness"] = {
        "applicable": applicable,
        "failures": [
            {"set": list(s), "check": n, "details": d} for s, n, d in uniq_failures
        ],
    }

    if args.format == "json":
        out["ok"] = failures == 0
        _emit(out)
    else:
        print("\n".join(lines))
    return 2 if failures else 0


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
