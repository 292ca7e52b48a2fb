"""Command-line front end: enumeration reports, named theorem checks, and
construction dumps.

Every output embeds a run manifest (command line, seed, versions, wall
time, worker count, payload checksum; only `verify` draws random numbers,
so the seed is null elsewhere); identical inputs must reproduce
identical payload checksums.  Exit codes: 0 success, 1 failed check or
broken invariant, 2 bad parameters, 3 resource limit.  The commands raise
and `main` alone maps exceptions to exit codes, one code per class of
`tritrade.errors`: BrokenInvariant 1; DimensionTooLarge 3 (the caps are
the library's, but for the recover check's own), as is MemoryError;
TritradeError, NotAUnitrade, DimensionTooSmall and PreconditionFailed 2,
as are ValueError (all other bad input), TypeError and OSError.  Every count N(n) runs through the
class layer one dimension down (N(6) through the 92 n = 5 classes), and
only the count uses `--jobs`; its manifest records the workers it used.
Class reports key each class by its representative, which the class
layer yields in canonical form.

The `construct` families come from one table, `_FAMILIES`, read by
`--what <family>` (whose self-check fails off the family's size formula)
and by the trade specs of `product` and `kext`; one H'_t audit serves both
hprime commands, and one writer sends each report to stdout or to `--out`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import random
import sys
import time
from typing import Optional

from . import __version__, construct, enumeration, monomial, refdata, testsets
from .enumeration import bitrade_catalog, classify_all, spectrum
from .errors import (
    BrokenInvariant,
    DimensionTooLarge,
    DimensionTooSmall,
    PreconditionFailed,
    TritradeError,
)
from .funcspace import BoolFn
from .monomial import MonomialSet
from .trade import (
    TradeSet,
    bipartition,
    is_unitrade,
    mod3_admissible,
    small_bitrade_admissible,
    unitrade_alpha_admissible,
)

SCHEMA = "tritrade/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_RESOURCE = 3


def _manifest(args_list, seed, jobs, t0, payload_bytes) -> dict:
    return {
        "command": args_list,
        "seed": seed,
        "versions": {"tritrade": __version__, "python": sys.version.split()[0]},
        "wall_time_s": round(time.time() - t0, 3),
        "jobs": jobs,
        "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
    }


def _emit(payload, csv_rows, kind, args_list, seed, jobs, t0, out: Optional[str], fmt: str):
    """The report, to `out` or else to stdout: JSON embedding its manifest,
    or CSV with the manifest in the sidecar `<out>.manifest.json`."""
    if fmt == "json":
        payload_bytes = json.dumps(payload, sort_keys=True).encode()
        manifest = _manifest(args_list, seed, jobs, t0, payload_bytes)
        doc = {"schema": SCHEMA, "kind": kind, "payload": payload, "manifest": manifest}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
        manifest = _manifest(args_list, seed, jobs, t0, text.encode())
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)
    if out and fmt == "csv":
        with open(out + ".manifest.json", "w") as fh:
            json.dump({"schema": SCHEMA, "kind": kind, "manifest": manifest}, fh, indent=2)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _cmd_enumerate(args, argv) -> int:
    t0 = time.time()
    n = args.n
    jobs = 1  # the spectrum and the class report run in one process
    if args.mode == "count":
        total = enumeration.count_by_retract_classes(n, jobs=args.jobs)
        payload = {"n": n, "count": str(total)}
        csv_rows = [["n", "count"], [n, total]]
        print(total)
    elif args.mode == "spectrum":
        table = spectrum(n)
        payload = table.to_json()
        csv_rows = [["size", "sets"]] + [
            [s, c] for s, c in sorted(table.entries.items())
        ]
    else:  # classes; argparse admits no other mode
        count, records = classify_all(n)
        records.sort(key=lambda r: (r.cardinality, r.representative.to_text()))
        payload = {
            "n": n,
            "classes": count,
            "records": [r.to_json() for r in records],
        }
        csv_rows = [["key", "orbit", "aut", "cardinality"]] + [
            [r.representative.to_text(), r.orbit_size, r.aut, r.cardinality] for r in records
        ]
        print(count)
    if args.out or args.mode == "spectrum" or args.format == "csv":
        if args.mode == "count":  # the workers the count used, not the --jobs asked for
            jobs = enumeration.count_workers(n, args.jobs)
        _emit(payload, csv_rows, f"enumerate/{args.mode}", argv, None, jobs, t0, args.out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _spectrum_entries(n: int) -> dict[int, int]:
    if n <= enumeration.SPECTRUM_MAX_N:
        return dict(spectrum(n).entries)
    if n not in refdata.SPECTRUM_LISTS:
        raise DimensionTooLarge(f"no reference spectrum for n={n}")
    return refdata.spectrum_entries(n)


def _check_mod3(n: int, rng) -> tuple[bool, dict]:
    bad = [s for s in _spectrum_entries(n) if not mod3_admissible(n, s)]
    return not bad, {"bad_sizes": bad}


def _check_small_spectrum(n: int, rng) -> tuple[bool, dict]:
    entries = _spectrum_entries(n)
    lo, hi = 2 ** (n + 1), 5 * 2 ** (n - 1)
    mism = []
    for c in range(lo + 2, hi + 1, 2):
        predicted = small_bitrade_admissible(n, c)
        seen = entries.get(c, 0) > 0
        if predicted != seen:
            mism.append({"size": c, "predicted": predicted, "observed": seen})
    return not mism, {"window": [lo, hi], "mismatches": mism}


def _check_alpha(n: int, rng) -> tuple[bool, dict]:
    if n < 1:  # H(0,3) has no lines, so the unitrade catalog is vacuous
        raise DimensionTooSmall("alpha check needs n >= 1")
    bad = []
    for bits, mask in enumeration.unitrade_supports(n):
        c = mask.bit_count()
        if not unitrade_alpha_admissible(n, c):
            bad.append({"f": bits, "size": c})
    return not bad, {"checked": 1 << (1 << n), "bad": bad[:5]}


def _check_rank2(n: int, rng) -> tuple[bool, dict]:
    if n < 1:  # as in _check_alpha
        raise DimensionTooSmall("rank2 check needs n >= 1")
    table = monomial.rank_table(n)
    lo, hi = 2 ** n, 2 ** (n + 1)
    admissible = {2 ** (n + 1) - 2 ** (s + 1) for s in range(n)}
    bad = []
    checked = 0
    for bits, mask in enumeration.unitrade_supports(n):
        c = mask.bit_count()
        if not lo <= c < hi:
            continue
        checked += 1
        r = table[bits]
        U = TradeSet(n, 3, mask)
        ok = (
            c in admissible
            and r == (1 if c == lo else 2)
            and bipartition(U) is not None
        )
        if not ok:
            bad.append({"f": bits, "size": c, "rank": r})
    return not bad, {"checked": checked, "bad": bad[:5]}


def _check_minimal_count(n: int, rng) -> tuple[bool, dict]:
    entries = _spectrum_entries(n)
    got = entries.get(2 ** n, 0)
    return got == 3 ** n, {"at_2^n": got, "expected": 3 ** n}


def _check_max_unique(n: int, rng) -> tuple[bool, dict]:
    entries = _spectrum_entries(n)
    hi = 2 * 3 ** (n - 1)
    got = entries.get(hi, 0)
    ok = got == 3 * 2 ** (n - 1)
    detail = {"max_size": hi, "count": got, "expected": 3 * 2 ** (n - 1)}
    if n <= enumeration.CLASSIFY_MAX_N:
        # one class holds every maximal-size function: both signs of each set
        orbits = [r.orbit_size for r in classify_all(n)[1] if r.cardinality == hi]
        detail["class_orbits"] = orbits
        ok = ok and orbits == [2 * got]
    return ok, detail


def _check_gap14(n: int, rng) -> tuple[bool, dict]:
    entries = _spectrum_entries(n)
    lo, hi = 14 * 3 ** (n - 3), 2 * 3 ** (n - 1)
    offenders = [s for s in entries if lo < s < hi]
    witness = construct.bitrade14(n)
    return (
        not offenders and witness.cardinality == lo,
        {"window": [lo, hi], "offenders": offenders, "witness_size": witness.cardinality},
    )


def _check_pot12(n: int, rng) -> tuple[bool, dict]:
    construct.check_dimension(n)
    trials = 200
    found = 0
    counterexample = None
    for _ in range(trials):
        bits = rng.getrandbits(1 << n)
        f = BoolFn(n, bits)
        if not construct.almost_balanced_in_faces(f):
            continue
        found += 1
        try:
            construct.pot12(f)
        except TritradeError:
            counterexample = f.to_text()
            break
    return counterexample is None, {
        "balanced_sampled": found,
        "counterexample": counterexample,
    }


def _hprime_audit(t: int):
    """H'_t, its odd-distance report, and the checks both hprime commands share."""
    code = construct.hprime(t)
    report = construct.verify_odd_distance_bound(code.codewords(), q=3)
    checks = {
        "length_ok": code.length == 2 ** t - 2 + (3 ** t - 1) // 2,
        "pairwise_odd": report.pairwise_odd,
        "distinct_row_compositions": construct.distinct_row_compositions(code),
    }
    return code, report, checks


def _check_hprime(n: int, rng) -> tuple[bool, dict]:
    detail = {}
    ok = True
    for t in (2, 3):
        code, report, checks = _hprime_audit(t)
        detail[f"t={t}"] = {"length": code.length, "within_bound": report.within_bound, **checks}
        ok = ok and report.within_bound and all(checks.values())
    return ok, detail


# The largest n of the recover check.  Each of its 25 trials takes one
# subcube mask per word of Q_3^n: 2.4 s at n = 9, 15 s at n = 10 and 127 s
# at n = 11 (one run each, 2-core VM).
RECOVER_MAX_N = 10


def _check_recover(n: int, rng) -> tuple[bool, dict]:
    trials, good = 25, 0
    refused = []
    dim = max(n, 8)
    if dim > RECOVER_MAX_N:
        raise DimensionTooLarge(f"recover check capped at n={RECOVER_MAX_N}, got n={dim}")
    for _ in range(trials):
        V = _random_recoverable_set(rng, dim)
        U = monomial.trade_from_monomials(V)
        D = construct.min_distance(sorted(V.words))
        try:
            good += construct.recover_monomials(U, D) == V
        except ValueError as exc:  # V meets the precondition: a refusal fails
            refused.append(str(exc))
    return good == trials, {
        "n": dim, "trials": trials, "recovered": good, "refused": refused[:5],
    }


def _random_recoverable_set(rng, n: int) -> MonomialSet:
    """1..3 words with pairwise distance >= n-1, `construct.recoverable`
    at their code distance (which holds easily)."""
    while True:
        size = rng.choice([1, 2, 3])
        words = set()
        guard = 0
        while len(words) < size and guard < 200:
            guard += 1
            w = tuple(rng.randrange(3) for _ in range(n))
            if construct.min_distance([w, *words]) >= n - 1:
                words.add(w)
        if len(words) == size:
            D = construct.min_distance(sorted(words))
            if construct.recoverable(size, n, D):
                return MonomialSet(n, words)


def _check_testset(n: int, rng) -> tuple[bool, dict]:
    if n < 1:  # refused before the loop: the mechanics run needs m >= 1
        raise DimensionTooSmall("testset check needs n >= 1")
    m = min(n, 3)
    catalog = bitrade_catalog(m)
    report = {"m": m, "catalog": len(catalog)}
    ok = True
    decomposable = 0
    extractable = 0
    for bits, mask in enumeration.unitrade_supports(m):
        if not bits:
            continue
        try:  # the catalog checks the hypothesis: U is no xor of two bitrades
            T = testsets.extract_testset(TradeSet(m, 3, mask), catalog)
        except PreconditionFailed:
            decomposable += 1
            continue
        extractable += 1
        if len(T) != 2 ** m - 1:
            ok = False
    report["xor_decomposable"] = decomposable
    report["extractable"] = extractable
    # mechanics: ranks behave even when the hypothesis fails (a line system
    # of the wrong rank raises BrokenInvariant inside the extraction)
    U = construct.maximal_bitrade(m).base
    T = testsets.extract_testset(U)
    report["mechanics_points"] = len(T)
    ok = ok and len(T) == 2 ** m - 1
    return ok, report


CHECKS = {
    "mod3": (_check_mod3, "every bitrade cardinality is 0 or 2^n mod 3"),
    "small-spectrum": (_check_small_spectrum, "window sizes match the small-cardinality series"),
    "alpha": (_check_alpha, "all unitrade cardinalities are alpha-admissible"),
    "rank2": (_check_rank2, "unitrades below 2^(n+1) are rank<=2 bitrades of the stated sizes"),
    "minimal-count": (_check_minimal_count, "3^n minimal trades"),
    "max-unique": (_check_max_unique, "maximal class count and uniqueness"),
    "gap-14": (_check_gap14, "no bitrade size between 14*3^(n-3) and 2*3^(n-1)"),
    "pot12": (_check_pot12, "balanced xor parity gives bitrades"),
    "hprime": (_check_hprime, "duplicated-column code: lengths, odd distances, compositions"),
    "recover": (_check_recover, "monomial recovery round-trips"),
    "testset": (_check_testset, "testing-set extraction mechanics and xor report"),
}


def _cmd_verify(args, argv) -> int:
    t0 = time.time()
    if args.check not in CHECKS:
        print(f"unknown check {args.check!r}; have: {', '.join(sorted(CHECKS))}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    fn, desc = CHECKS[args.check]
    ok, detail = fn(args.n, random.Random(args.seed))
    payload = {
        "check": args.check,
        "n": args.n,
        "pass": ok,
        "description": desc,
        "detail": detail,
    }
    csv_rows = [["check", "n", "pass"], [args.check, args.n, ok]]
    _emit(payload, csv_rows, "verify", argv, args.seed, 1, t0, args.out, args.format)
    print(f"{args.check} n={args.n}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _trade_payload(B) -> dict:
    base = B.base
    return {
        **base.to_json(),
        "cardinality": base.cardinality,
        "self_check": {
            "is_unitrade": is_unitrade(base),
            "bipartite": bipartition(base) is not None,
        },
    }


# name -> (bitrade, its formula's cardinality) from a spec's integers or
# from the `construct` options named like the parameters; each reads its
# `construct` builder when called, so a test can patch the builder
_FAMILIES = {
    "maximal": lambda n: (construct.maximal_bitrade(n), 2 * 3 ** (n - 1)),
    "rank2": lambda n, s: (construct.rank2_family(n, s), 2 ** (n + 1) - 2 ** (s + 1)),
    "bitrade14": lambda n: (construct.bitrade14(n), 14 * 3 ** (n - 3)),
    "minimal": lambda n: (construct.minimal_bitrade(n), 2 ** n),
}


def _family_params(name: str) -> list[str]:
    return list(inspect.signature(_FAMILIES[name]).parameters)


def _parse_trade_spec(spec: str):
    """`family:int:...` of `_FAMILIES` or `@file.json`; else a ValueError naming it."""
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            U = TradeSet.from_json(json.load(fh))
        B = bipartition(U)
        if B is None:
            raise ValueError("file does not hold a bitrade")
        return B
    name, *parts = spec.split(":")
    try:
        ints = [int(p) for p in parts]
    except ValueError:
        ints = None
    if name in _FAMILIES and ints and len(ints) == len(_family_params(name)) and min(ints) >= 0:
        return _FAMILIES[name](*ints)[0]
    grammar = ", ".join(":".join([f, *_family_params(f)]) for f in _FAMILIES)
    raise ValueError(f"bad trade spec {spec!r}; have {grammar} or @file.json")


def _cmd_construct(args, argv) -> int:
    t0 = time.time()
    if args.what in _FAMILIES:
        B, size = _FAMILIES[args.what](*(getattr(args, p) for p in _family_params(args.what)))
        payload = _trade_payload(B)
        payload["self_check"]["expected_size"] = size
    elif args.what == "product":
        B = construct.product(_parse_trade_spec(args.left), _parse_trade_spec(args.right))
        payload = _trade_payload(B)
    elif args.what == "kext":
        payload = _trade_payload(construct.k_extension(_parse_trade_spec(args.base), args.m))
    elif args.what == "hprime":
        code, _, checks = _hprime_audit(args.t)
        checks["code_unique_rows"] = construct.code_unique_compositions(code)
        payload = {**code.to_json(), "self_check": checks}
    else:  # pot12; argparse admits no other construction
        payload = _trade_payload(construct.pot12(BoolFn.from_text(args.f)))
    csv_rows = [["field", "value"]] + [
        [k, json.dumps(v, sort_keys=True)] for k, v in sorted(payload.items())
    ]
    # expected_size is the family formula's cardinality, not a flag
    failures = [
        k for k, v in payload.get("self_check", {}).items()
        if v is False or k == "expected_size" and v != payload["cardinality"]
    ]
    _emit(payload, csv_rows, f"construct/{args.what}", argv, None, 1, t0, args.out, args.format)
    if failures:
        print(f"self-check failed: {failures}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tritrade")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("enumerate", help="counts, spectra, class reports")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--mode", choices=["count", "spectrum", "classes"], default="count")
    pe.add_argument("--jobs", type=int, default=1)

    pv = sub.add_parser("verify", help="named theorem checks")
    pv.add_argument("--check", required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--seed", type=int, default=0)

    pc = sub.add_parser("construct", help="named constructions")
    pc.add_argument("--what", required=True,
                    choices=["maximal", "rank2", "bitrade14", "product", "kext", "hprime", "pot12"])
    pc.add_argument("--n", type=int, default=3)
    pc.add_argument("--s", type=int, default=0)
    pc.add_argument("--t", type=int, default=2)
    pc.add_argument("--m", type=int, default=1)
    pc.add_argument("--left", default="maximal:2")
    pc.add_argument("--right", default="maximal:2")
    pc.add_argument("--base", default="maximal:2")
    pc.add_argument("--f", default="01")
    for sp in (pe, pv, pc):
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 0 or getattr(args, "jobs", 1) < 1:
        print("parameter error: need --n >= 0 and --jobs >= 1", file=sys.stderr)
        return EXIT_BAD_PARAMS
    commands = {"enumerate": _cmd_enumerate, "verify": _cmd_verify, "construct": _cmd_construct}
    # the one exit-code boundary: the commands raise, only this maps
    try:
        return commands[args.cmd](args, argv)
    except DimensionTooLarge as exc:
        print(exc, file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenInvariant as exc:  # a bug, not bad input
        print(f"broken invariant: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (TritradeError, ValueError, TypeError, OSError) as exc:
        # OSError: unreadable input or unwritable --out
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
