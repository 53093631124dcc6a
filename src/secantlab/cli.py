"""Command-line interface: build curves, secant ideals, Betti tables, and
verification reports.

Subcommands: curve, secant, betti, verify, bench.  Exit codes form the CI
contract: 0 success / all rows match, 1 mismatch, 2 input error, 3 resource
limit, 4 internal error (a Betti table broke a run-time identity).  The
environment variable SECANTLAB_PAIR_BUDGET overrides the default S-pair
budget.  JSON output is deterministic for a fixed (config, seed, prime)
and carries no timings; only ``bench`` reports wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from multiprocessing import Pool

from .arith import PrimeField
# rational_normal_curve is not called here (embed dispatches genus 0 to it);
# it stays bound in this module because perfbench/traced.py hooks it here.
from .curves import embed, parse_curve_file, rational_normal_curve  # noqa: F401
from .gb import Ideal, ResourceLimit
from .homalg import (InternalIdentityError, hilbert_data, is_acm,
                     max_ndp_steps, minimal_free_resolution,
                     projective_dimension, regularity)
from .ideal_ops import secant_join
from .oracle import verify
from .poly import MonomialOrder, ParseError, PolyRing

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _pair_budget(args) -> int | None:
    if getattr(args, "pair_budget", None) is not None:
        if args.pair_budget <= 0:
            raise InputError("pair budget must be positive")
        return args.pair_budget
    env = os.environ.get("SECANTLAB_PAIR_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise InputError(f"SECANTLAB_PAIR_BUDGET={env!r} is not an "
                             "integer")
        if budget <= 0:
            raise InputError("SECANTLAB_PAIR_BUDGET must be positive")
        return budget
    return None


def _load_curve(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    try:
        return parse_curve_file(text)
    except (ValueError, ParseError) as e:
        raise InputError(f"{path}: {e}")


def _build_embedding(path: str, pair_budget=None):
    model, degree = _load_curve(path)
    try:
        return embed(model, degree, pair_budget=pair_budget)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def parse_ideal_file(text: str) -> Ideal:
    """Homogeneous ideal file: "field: P", "variables: a, b, c", then one
    "generator: <polynomial>" line per generator."""
    prime = None
    names = None
    raw_gens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise InputError(f"line {lineno}: expected 'key: value'")
        key, value = key.strip().lower(), value.strip()
        if key == "field":
            try:
                prime = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: field must be an integer")
        elif key == "variables":
            names = [v.strip() for v in value.split(",") if v.strip()]
        elif key == "generator":
            raw_gens.append((lineno, value))
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if prime is None or names is None:
        raise InputError("ideal file needs 'field:' and 'variables:' lines")
    try:
        field = PrimeField(prime)
    except ValueError as e:
        raise InputError(str(e))
    ring = PolyRing(names, field, MonomialOrder.grevlex())
    gens = []
    for lineno, text_ in raw_gens:
        try:
            gens.append(ring.parse(text_))
        except (ValueError, ParseError) as e:
            raise InputError(f"line {lineno}: {e}")
    return Ideal(ring, gens)


def _emit(payload: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(payload)
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    emb = _build_embedding(args.file, _pair_budget(args))
    gens = [str(f) for f in emb.ideal.generators]
    if args.format == "json":
        payload = _json({
            "genus": emb.model.genus, "prime": emb.model.field.p,
            "degree": emb.d, "r": emb.r,
            "basis": [[list(e), pole] for e, pole in emb.basis],
            "generators": gens})
    else:
        lines = [f"genus {emb.model.genus} curve, degree {emb.d}, "
                 f"embedded in P^{emb.r} over F_{emb.model.field.p}",
                 "basis (monomial exponents : pole order):"]
        lines += [f"  {e} : {pole}" for e, pole in emb.basis]
        lines.append(f"ideal ({len(gens)} generators):")
        lines += [f"  {g}" for g in gens]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return EXIT_OK


def cmd_secant(args) -> int:
    budget = _pair_budget(args)
    emb = _build_embedding(args.file, budget)
    S = secant_join(emb.secant_spec(args.k), seed=args.seed,
                    pair_budget=budget)
    gens = [str(f) for f in S.generators]
    if args.format == "json":
        payload = _json({
            "genus": emb.model.genus, "prime": emb.model.field.p,
            "degree": emb.d, "k": args.k, "r": emb.r, "seed": args.seed,
            "generators": gens})
    else:
        head = (f"secant variety k={args.k} of the degree-{emb.d} genus-"
                f"{emb.model.genus} curve in P^{emb.r}")
        body = "\n".join(f"  {g}" for g in gens) if gens \
            else "  (zero ideal: the secant variety fills P^r)"
        payload = f"{head}\n{body}\n"
    _emit(payload, args.output)
    return EXIT_OK


def cmd_betti(args) -> int:
    budget = _pair_budget(args)
    if args.ideal_file:
        try:
            with open(args.ideal_file) as fh:
                I = parse_ideal_file(fh.read())
        except OSError as e:
            raise InputError(f"cannot read {args.ideal_file}: {e.strerror}")
        if not I.is_homogeneous():
            raise InputError("ideal file must be homogeneous")
    else:
        if not args.file or args.k is None:
            raise InputError("betti needs --file with --k, or --ideal-file")
        emb = _build_embedding(args.file, budget)
        I = secant_join(emb.secant_spec(args.k), seed=args.seed,
                        pair_budget=budget)
    if I.is_zero():
        _emit("(zero ideal)\n" if args.format == "text"
              else _json({"r": I.ring.nvars - 1, "entries": [[0, 0, 1]]}),
              args.output)
        return EXIT_OK
    hd = hilbert_data(I, pair_budget=budget)
    B = minimal_free_resolution(I, degree_bound=args.max_degree,
                                pair_budget=budget, seed=args.seed)
    if args.format == "json":
        out = B.to_json_dict()
        out["degree"] = hd.degree
        out["dimension"] = hd.projective_dimension_of_variety
        if B.truncated_at is None:
            out["regularity"] = regularity(B)
            out["projective_dimension"] = projective_dimension(B)
            out["acm"] = is_acm(B, hd)
        else:
            out["truncated_at"] = B.truncated_at
        payload = _json(out)
    else:
        lines = [B.display()]
        if B.truncated_at is not None:
            lines.append(f"(truncated: entries with j > {B.truncated_at} "
                         "unknown)")
        else:
            lines.append(f"regularity {regularity(B)}, projective dimension "
                         f"{projective_dimension(B)}, "
                         f"ACM {is_acm(B, hd)}")
            d0 = min(j for (i, j), _ in B.entries if i == 1)
            lines.append(f"N_({d0},p) holds up to p = "
                         f"{max_ndp_steps(B, d0)}")
        lines.append(f"degree {hd.degree}, dimension "
                     f"{hd.projective_dimension_of_variety}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return EXIT_OK


def _verify_instance(task):
    path, k, seed, budget, max_degree = task
    emb = _build_embedding(path, budget)
    rep = verify(emb, k, seed=seed, pair_budget=budget,
                 degree_bound=max_degree)
    out = rep.to_json_dict()
    out["instance"]["curve_file"] = os.path.basename(path)
    return out


def cmd_verify(args) -> int:
    budget = _pair_budget(args)
    tasks = [(path, args.k, args.seed, budget, args.max_degree)
             for path in args.file]
    if args.jobs > 1 and len(tasks) > 1:
        with Pool(args.jobs) as pool:
            reports = pool.map(_verify_instance, tasks)
    else:
        reports = [_verify_instance(t) for t in tasks]
    if args.format == "json":
        payload = _json(reports if len(reports) > 1 else reports[0])
    else:
        lines = []
        for rep in reports:
            inst = rep["instance"]
            lines.append(f"curve {inst['curve_file']} (genus {inst['genus']},"
                         f" degree {inst['degree']}), k={inst['k']}, "
                         f"prime {rep['prime']}, seed {rep['seed']}")
            for row in rep["rows"]:
                lines.append(f"  {row['name']:<22} predicted "
                             f"{row['predicted']!s:<10} computed "
                             f"{row['computed']!s:<10} {row['verdict']}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    for rep in reports:
        if "error" in rep["instance"]:
            print(f"internal error: {rep['instance']['curve_file']}: "
                  f"{rep['instance']['error']}", file=sys.stderr)
    rows = [r for rep in reports for r in rep["rows"]]
    if any(r["verdict"].startswith("error") for r in rows):
        return EXIT_INTERNAL
    if any(r["verdict"] == "mismatch" for r in rows):
        return EXIT_MISMATCH
    if any("resource" in r["verdict"] for r in rows):
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_bench(args) -> int:
    budget = _pair_budget(args)
    t0 = time.monotonic()
    emb = _build_embedding(args.file, budget)
    t_embed = time.monotonic() - t0
    t0 = time.monotonic()
    S = secant_join(emb.secant_spec(args.k), seed=args.seed,
                    pair_budget=budget)
    t_join = time.monotonic() - t0
    t0 = time.monotonic()
    if not S.is_zero():
        hilbert_data(S, pair_budget=budget)
    t_hilb = time.monotonic() - t0
    t0 = time.monotonic()
    if not S.is_zero():
        minimal_free_resolution(S, pair_budget=budget, seed=args.seed)
    t_betti = time.monotonic() - t0
    print(f"embed  {t_embed * 1000:9.1f} ms")
    print(f"join   {t_join * 1000:9.1f} ms")
    print(f"hilbert{t_hilb * 1000:9.1f} ms")
    print(f"betti  {t_betti * 1000:9.1f} ms")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="secantlab",
        description="secant varieties of curves over prime fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, needs_k=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--pair-budget", type=int, default=None)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--output", default=None)
        if needs_k:
            sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("curve", help="build and print a curve embedding")
    sp.add_argument("--file", required=True)
    common(sp, needs_k=False)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("secant", help="print the secant variety ideal")
    sp.add_argument("--file", required=True)
    common(sp)
    sp.set_defaults(func=cmd_secant)

    sp = sub.add_parser("betti", help="Betti table and derived invariants")
    sp.add_argument("--file", default=None)
    sp.add_argument("--ideal-file", default=None)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    common(sp, needs_k=False)
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("verify", help="compare computed invariants against "
                                       "the closed-form predictions")
    sp.add_argument("--file", nargs="+", required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="time the pipeline stages")
    sp.add_argument("--file", required=True)
    common(sp)
    sp.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    k = getattr(args, "k", None)
    if k is not None and k < 0:
        print("error: k must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalIdentityError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
