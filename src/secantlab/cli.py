"""Command-line interface: build curves, secant ideals, Betti tables, and
verification reports.

Subcommands: curve, secant, betti, verify, bench.  Exit codes form the CI
contract: 0 success / all rows match, 1 mismatch, 2 input error (a monomial
degree too large to pack included), 3 resource limit, 4 internal error (a
Betti table broke a run-time identity, a Hilbert-driven basis missed its
Hilbert target, or a secant join failed its saturation criterion, so
that no result is certified).  Each subcommand
runs under one S-pair budget, set once by ``main``: --pair-budget, else
the environment variable SECANTLAB_PAIR_BUDGET, else
``gb.DEFAULT_PAIR_BUDGET``.  Input validation is not budgeted, so an
invalid file is an input error under any budget; ``verify --jobs N``
passes the budget to each worker with its task.  JSON output is
deterministic for a fixed (config, seed, prime) and carries no timings;
only ``bench`` reports wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .arith import PrimeField
# rational_normal_curve is not called here (embed dispatches genus 0 to it);
# it stays bound in this module because perfbench/traced.py hooks it here.
from .curves import (_key_values, embed, parse_curve_file,  # noqa: F401
                     rational_normal_curve)
from .gb import DEFAULT_PAIR_BUDGET, Ideal, ResourceLimit, pair_budget
from .homalg import (InternalIdentityError, hilbert_data, is_acm,
                     max_ndp_steps, min_generator_degree,
                     minimal_free_resolution, projective_dimension,
                     regularity)
from .ideal_ops import secant_join
from .oracle import verify
from .poly import DegreeTooLarge, MonomialOrder, PolyRing

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _pair_budget(args) -> int:
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
    return DEFAULT_PAIR_BUDGET


def _max_degree(args) -> int | None:
    if args.max_degree is not None and args.max_degree < 0:
        raise InputError("max degree must be nonnegative")
    return args.max_degree


def _load(path: str, parse):
    """``parse`` applied to the text of an input file; every error names
    the file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    try:
        return parse(text)
    except (ValueError, DegreeTooLarge) as e:
        raise InputError(f"{path}: {e}")


def _build_embedding(path: str):
    model, degree = _load(path, parse_curve_file)
    try:
        return embed(model, degree)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def parse_ideal_file(text: str) -> Ideal:
    """Homogeneous ideal file: one "field: P" and one "variables: a, b, c"
    line, and one "generator: <polynomial>" line per generator."""
    prime = None
    names = None
    raw_gens = []
    for lineno, key, value in _key_values(
            text, ("field", "variables", "generator"), ("generator",)):
        if key == "field":
            try:
                prime = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: field must be an integer")
        elif key == "variables":
            names = [v.strip() for v in value.split(",") if v.strip()]
            if not names:
                raise InputError(f"line {lineno}: 'variables:' names no "
                                 "variable")
        else:
            raw_gens.append((lineno, value))
    if prime is None or names is None:
        raise InputError("ideal file needs 'field:' and 'variables:' lines")
    try:
        field = PrimeField(prime)
    except ValueError as e:
        raise InputError(str(e))
    try:
        ring = PolyRing(names, field, MonomialOrder.grevlex())
    except ValueError as e:
        raise InputError(f"variables: {e}")
    gens = []
    for lineno, text_ in raw_gens:
        try:
            gens.append(ring.parse(text_))
        except (ValueError, DegreeTooLarge) as e:
            raise InputError(f"line {lineno}: {e}")
    I = Ideal(ring, gens)
    if not I.is_homogeneous():
        raise InputError("ideal file must be homogeneous")
    return I


def _emit(payload: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(payload)
        except OSError as e:
            raise InputError(f"cannot write {output}: {e.strerror}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    emb = _build_embedding(args.file)
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
    emb = _build_embedding(args.file)
    S = secant_join(emb.secant_spec(args.k))
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
    max_degree = _max_degree(args)
    if args.ideal_file:
        if args.file or args.k is not None:
            raise InputError("betti takes --ideal-file or --file with --k, "
                             "not both")
        I = _load(args.ideal_file, parse_ideal_file)
    else:
        if not args.file or args.k is None:
            raise InputError("betti needs --file with --k, or --ideal-file")
        emb = _build_embedding(args.file)
        I = secant_join(emb.secant_spec(args.k))
    if I.is_zero():
        _emit("(zero ideal)\n" if args.format == "text"
              else _json({"r": I.ring.nvars - 1, "entries": [[0, 0, 1]]}),
              args.output)
        return EXIT_OK
    hd = hilbert_data(I)
    if hd.dimension < 0:
        raise InputError(f"{args.ideal_file}: the unit ideal has no graded "
                         "Betti table")
    B = minimal_free_resolution(I, degree_bound=max_degree, seed=args.seed)
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
            d0 = min_generator_degree(B)
            # N_(d,p) is defined for d >= 2 only: no line for a linear
            # generator
            if d0 >= 2:
                lines.append(f"N_({d0},p) holds up to p = "
                             f"{max_ndp_steps(B, d0)}")
        lines.append(f"degree {hd.degree}, dimension "
                     f"{hd.projective_dimension_of_variety}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return EXIT_OK


def _verify_instance(task):
    path, k, seed, budget, max_degree = task
    # a context value does not cross into a worker started by spawn or
    # forkserver, so the worker sets the budget it is given
    with pair_budget(budget):
        emb = _build_embedding(path)
        rep = verify(emb, k, seed=seed, degree_bound=max_degree)
    rep["instance"]["curve_file"] = os.path.basename(path)
    return rep


def cmd_verify(args) -> int:
    max_degree = _max_degree(args)
    if args.jobs < 1:
        raise InputError("jobs must be positive")
    budget = _pair_budget(args)
    tasks = [(path, args.k, args.seed, budget, max_degree)
             for path in args.file]
    if args.jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool

        with Pool(min(args.jobs, len(tasks))) as pool:
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
    t0 = time.monotonic()
    emb = _build_embedding(args.file)
    t_embed = time.monotonic() - t0
    t0 = time.monotonic()
    S = secant_join(emb.secant_spec(args.k))
    t_join = time.monotonic() - t0
    t0 = time.monotonic()
    if not S.is_zero():
        hilbert_data(S)
    t_hilb = time.monotonic() - t0
    t0 = time.monotonic()
    if not S.is_zero():
        minimal_free_resolution(S, seed=args.seed)
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
    try:
        if getattr(args, "k", None) is not None and args.k < 0:
            raise InputError("k must be nonnegative")
        with pair_budget(_pair_budget(args)):
            return args.func(args)
    except (InputError, DegreeTooLarge) as e:
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
